//! The precomputed [`RouteTable`] must agree with the definitional
//! routing functions on every `(node, dest)` pair — the hot path may
//! only be *faster* than calling them per flit, never different. The
//! table's dimension-generic encoding (per-node coordinates + shared
//! k×k ring tables + sign-code candidate sets) makes this a real
//! theorem, checked here both on fixed grids and property-style over
//! random `(radix, dims)` shapes.

use noc_network::config::RoutingAlgo;
use noc_network::routing::{
    dateline_vc_mask, dimension_ordered, negative_first_candidates, negative_first_route,
    west_first_candidates, west_first_route, RouteTable,
};
use noc_network::Mesh;
use proptest::prelude::*;

#[test]
fn dor_table_matches_function_on_mesh_and_torus() {
    for (mesh, vcs) in [
        (Mesh::new(4, 2), 1),
        (Mesh::new(8, 2), 2),
        (Mesh::new(3, 3), 4),
        (Mesh::new(4, 2).into_torus(), 2),
        (Mesh::new(8, 2).into_torus(), 4),
    ] {
        let table = RouteTable::new(&mesh, RoutingAlgo::DimensionOrdered, vcs);
        for node in 0..mesh.nodes() {
            for dest in 0..mesh.nodes() {
                let port = dimension_ordered(&mesh, node, dest);
                // Deterministic routing ignores the selector.
                for selector in [0u64, 1, 0xDEAD_BEEF] {
                    assert_eq!(
                        table.route(node, dest, selector),
                        port,
                        "{mesh} node {node} dest {dest}"
                    );
                }
                assert_eq!(
                    table.vc_mask(node, dest),
                    dateline_vc_mask(&mesh, node, port, dest, vcs),
                    "{mesh} node {node} dest {dest} mask"
                );
            }
        }
    }
}

/// The neighbor table the engines forward flits and credits through is
/// `Mesh::neighbor` entry by entry, edges and the local port included.
#[test]
fn neighbor_table_matches_mesh_neighbor() {
    for mesh in [
        Mesh::new(2, 1),
        Mesh::new(4, 2),
        Mesh::new(3, 3),
        Mesh::new(4, 2).into_torus(),
        Mesh::new(5, 3).into_torus(),
    ] {
        let table = RouteTable::new(&mesh, RoutingAlgo::DimensionOrdered, 2);
        for node in 0..mesh.nodes() {
            for port in 0..mesh.ports() {
                assert_eq!(
                    table.neighbor(node, port),
                    mesh.neighbor(node, port),
                    "{mesh} node {node} port {port}"
                );
            }
        }
    }
}

#[test]
fn adaptive_table_matches_west_first_for_every_selector_class() {
    let mesh = Mesh::new(6, 2);
    let table = RouteTable::new(&mesh, RoutingAlgo::WestFirstAdaptive, 2);
    for node in 0..mesh.nodes() {
        for dest in 0..mesh.nodes() {
            let cands = west_first_candidates(&mesh, node, dest);
            // Selector choice is modulo the candidate count; cover both
            // residues plus large values.
            for selector in [0u64, 1, 2, 3, u64::MAX - 1, u64::MAX] {
                assert_eq!(
                    table.route(node, dest, selector),
                    west_first_route(&mesh, node, dest, selector),
                    "node {node} dest {dest} selector {selector} (cands {cands:?})"
                );
            }
            // West-first is mesh-only: every VC is permitted.
            assert_eq!(table.vc_mask(node, dest), 0b11);
        }
    }
}

#[test]
fn adaptive_table_matches_negative_first_in_three_dims() {
    for mesh in [Mesh::new(3, 3), Mesh::new(4, 3), Mesh::new(5, 1)] {
        let table = RouteTable::new(&mesh, RoutingAlgo::NegativeFirstAdaptive, 2);
        for node in 0..mesh.nodes() {
            for dest in 0..mesh.nodes() {
                let cands = negative_first_candidates(&mesh, node, dest);
                for selector in [0u64, 1, 2, 3, 4, u64::MAX] {
                    assert_eq!(
                        table.route(node, dest, selector),
                        negative_first_route(&mesh, node, dest, selector),
                        "{mesh} node {node} dest {dest} selector {selector} (cands {cands:?})"
                    );
                }
                assert_eq!(table.vc_mask(node, dest), 0b11, "mesh masks are full");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generalized table agrees with the definitional DOR function
    /// entry by entry over random `(radix, dims, torus, vcs)` shapes —
    /// the satellite guarantee that no shape-specific encoding bug hides
    /// between the fixed grids above.
    #[test]
    fn dor_table_matches_function_over_random_shapes(
        radix in 2usize..10,
        dims in 1usize..4,
        torus in any::<bool>(),
        vcs in 2usize..5,
    ) {
        let mut mesh = Mesh::new(radix, dims);
        if torus {
            mesh = mesh.into_torus();
        }
        let table = RouteTable::new(&mesh, RoutingAlgo::DimensionOrdered, vcs);
        for node in 0..mesh.nodes() {
            for dest in 0..mesh.nodes() {
                let port = dimension_ordered(&mesh, node, dest);
                prop_assert_eq!(
                    table.route(node, dest, 7),
                    port,
                    "{} node {} dest {}", mesh, node, dest
                );
                prop_assert_eq!(
                    table.vc_mask(node, dest),
                    dateline_vc_mask(&mesh, node, port, dest, vcs),
                    "{} node {} dest {} mask", mesh, node, dest
                );
            }
        }
    }

    /// Same entry-by-entry agreement for the adaptive turn models over
    /// random mesh shapes (west-first where defined, negative-first
    /// everywhere), across selector residues.
    #[test]
    fn adaptive_tables_match_functions_over_random_shapes(
        radix in 2usize..8,
        dims in 1usize..4,
        selector in any::<u64>(),
    ) {
        let mesh = Mesh::new(radix, dims);
        let nf = RouteTable::new(&mesh, RoutingAlgo::NegativeFirstAdaptive, 2);
        let wf = (dims == 2).then(|| RouteTable::new(&mesh, RoutingAlgo::WestFirstAdaptive, 2));
        for node in 0..mesh.nodes() {
            for dest in 0..mesh.nodes() {
                prop_assert_eq!(
                    nf.route(node, dest, selector),
                    negative_first_route(&mesh, node, dest, selector),
                    "negative-first {} node {} dest {}", mesh, node, dest
                );
                if let Some(wf) = &wf {
                    prop_assert_eq!(
                        wf.route(node, dest, selector),
                        west_first_route(&mesh, node, dest, selector),
                        "west-first {} node {} dest {}", mesh, node, dest
                    );
                }
            }
        }
    }
}

#[test]
fn table_masks_never_empty() {
    // An all-zero mask would deadlock the router at RC; every entry must
    // permit at least one VC.
    for mesh in [Mesh::new(5, 2), Mesh::new(5, 2).into_torus()] {
        let vcs = 3;
        let table = RouteTable::new(&mesh, RoutingAlgo::DimensionOrdered, vcs);
        for node in 0..mesh.nodes() {
            for dest in 0..mesh.nodes() {
                let mask = table.vc_mask(node, dest) & ((1 << vcs) - 1);
                assert_ne!(mask, 0, "{mesh} node {node} dest {dest}");
            }
        }
    }
}
