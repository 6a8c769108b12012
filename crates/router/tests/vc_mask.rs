//! The routing oracle's per-hop VC mask: the mechanism behind dateline
//! deadlock avoidance, tested directly at the router level.

use router_core::{Flit, PacketId, Router, RouterConfig, RoutingOracle};

/// An oracle that routes everything to port 1 and restricts output VCs
/// to a fixed mask.
struct MaskedOracle(u64);

impl RoutingOracle for MaskedOracle {
    fn output_port(&self, _flit: &Flit) -> usize {
        1
    }
    fn vc_mask(&self, _flit: &Flit, _out_port: usize) -> u64 {
        self.0
    }
}

fn wired(vcs: usize) -> Router {
    let cfg = RouterConfig::speculative(5, vcs, 4);
    let mut r = Router::new(cfg);
    for port in 0..5 {
        r.set_output_credits(port, 8);
    }
    r
}

#[test]
fn mask_restricts_allocated_vcs() {
    // Only the upper half (VCs 2 and 3) permitted.
    let mut r = wired(4);
    for (i, f) in Flit::packet(PacketId::new(1), 9, 0, 0, 2)
        .into_iter()
        .enumerate()
    {
        r.accept_flit(0, f, 10 + i as u64);
    }
    let mut out_vcs = Vec::new();
    for now in 10..20 {
        for d in r.tick(now, &MaskedOracle(0b1100)).departures {
            out_vcs.push(d.flit.vc);
        }
    }
    assert_eq!(out_vcs.len(), 2);
    assert!(
        out_vcs.iter().all(|&v| v >= 2),
        "mask violated: {out_vcs:?}"
    );
}

#[test]
fn packets_with_disjoint_masks_share_a_port() {
    // Two packets, one constrained to the low class and one to the high
    // class, both through port 1 — each gets a VC from its own class.
    struct PerPacket;
    impl RoutingOracle for PerPacket {
        fn output_port(&self, _f: &Flit) -> usize {
            1
        }
        fn vc_mask(&self, f: &Flit, _p: usize) -> u64 {
            if f.packet == PacketId::new(1) {
                0b0011
            } else {
                0b1100
            }
        }
    }
    let mut r = wired(4);
    for f in Flit::packet(PacketId::new(1), 9, 0, 0, 2) {
        r.accept_flit(0, f, 10 + u64::from(f.seq));
    }
    for f in Flit::packet(PacketId::new(2), 9, 0, 0, 2) {
        r.accept_flit(2, f, 10 + u64::from(f.seq));
    }
    let mut by_packet: std::collections::HashMap<u64, Vec<u8>> = Default::default();
    for now in 10..25 {
        for d in r.tick(now, &PerPacket).departures {
            by_packet
                .entry(d.flit.packet.value())
                .or_default()
                .push(d.flit.vc);
        }
    }
    assert!(by_packet[&1].iter().all(|&v| v < 2), "{by_packet:?}");
    assert!(by_packet[&2].iter().all(|&v| v >= 2), "{by_packet:?}");
}

#[test]
fn blocked_class_stalls_instead_of_stealing() {
    // Both output VCs of the permitted class are owned; the packet must
    // wait even though other VCs are free.
    let mut r = wired(2);
    // Claim VC 0 (the only mask-permitted VC) with packet A's head, whose
    // body we withhold so the VC stays owned.
    r.accept_flit(0, Flit::packet(PacketId::new(1), 9, 0, 0, 4)[0], 10);
    for now in 10..13 {
        let _ = r.tick(now, &MaskedOracle(0b01));
    }
    // Packet B wants the same class.
    for f in Flit::packet(PacketId::new(2), 9, 0, 0, 2) {
        r.accept_flit(2, f, 13 + u64::from(f.seq));
    }
    let mut b_departed = false;
    for now in 13..25 {
        for d in r.tick(now, &MaskedOracle(0b01)).departures {
            if d.flit.packet == PacketId::new(2) {
                b_departed = true;
            }
        }
    }
    assert!(!b_departed, "B must stall while its class is owned");
    assert_eq!(r.input_occupancy(2, 0), 2, "B fully buffered, waiting");
}

#[test]
#[should_panic(expected = "no output VC")]
fn empty_mask_is_rejected() {
    let mut r = wired(2);
    r.accept_flit(0, Flit::head(PacketId::new(1), 9, 0, 0), 10);
    let _ = r.tick(10, &MaskedOracle(0));
}

#[test]
fn full_width_router_reaches_the_top_channel() {
    // 8 ports x 8 VCs = 64 channels, the most a router's masks hold. A
    // packet on the last input channel (port 7, VC 7 = bit 63) is
    // confined to the last output VC (resource 63) and must still get
    // through, on both the VC and the speculative pipeline.
    struct LastVc;
    impl RoutingOracle for LastVc {
        fn output_port(&self, _f: &Flit) -> usize {
            7
        }
        fn vc_mask(&self, _f: &Flit, _p: usize) -> u64 {
            1 << 7
        }
    }
    for cfg in [
        RouterConfig::virtual_channel(8, 8, 4),
        RouterConfig::speculative(8, 8, 4),
    ] {
        let mut r = Router::new(cfg);
        for port in 0..8 {
            r.set_output_credits(port, 4);
        }
        for f in Flit::packet(PacketId::new(1), 9, 7, 0, 3) {
            r.accept_flit(7, f, 10 + u64::from(f.seq));
        }
        let mut out_vcs = Vec::new();
        for now in 10..25 {
            out_vcs.extend(r.tick(now, &LastVc).departures.iter().map(|d| d.flit.vc));
        }
        assert_eq!(out_vcs, vec![7, 7, 7], "{cfg}");
        assert_eq!(r.stats().va_grants, 1, "{cfg}");
        assert!(r.is_quiescent(), "{cfg}");
    }
}
