//! Property-based tests: random packet streams through a single router
//! with a closed credit loop must deliver everything, in order, without
//! violating any flow-control invariant (the router's internal asserts
//! check buffer overflow, credit duplication, and foreign flits).

use proptest::prelude::*;
use router_core::{Flit, FlitKind, PacketId, Router, RouterConfig};
use std::collections::{HashMap, VecDeque};

/// A self-contained test bench: feeds flits subject to upstream credits,
/// returns downstream credits after a fixed delay, and records departures.
struct Bench {
    router: Router,
    feeds: Vec<VecDeque<Flit>>,
    in_credits: Vec<Vec<u64>>,
    downstream_credits: VecDeque<(u64, usize, usize)>, // (due, out_port, vc)
    credit_delay: u64,
    departures: Vec<Flit>,
    injected: usize,
}

impl Bench {
    fn new(cfg: RouterConfig, feeds: Vec<VecDeque<Flit>>, credit_delay: u64) -> Self {
        let mut router = Router::new(cfg);
        for port in 0..cfg.ports {
            router.set_output_credits(port, cfg.buffers_per_vc as u64);
        }
        let injected = feeds.iter().map(VecDeque::len).sum();
        Bench {
            router,
            feeds,
            in_credits: vec![vec![cfg.buffers_per_vc as u64; cfg.vcs]; cfg.ports],
            downstream_credits: VecDeque::new(),
            credit_delay,
            departures: Vec::new(),
            injected,
        }
    }

    /// Runs until everything drains; panics (test failure) on timeout.
    fn run(&mut self, ports: usize) {
        let cap = 20_000u64;
        for now in 0..cap {
            while self
                .downstream_credits
                .front()
                .is_some_and(|(due, _, _)| *due <= now)
            {
                let (_, port, vc) = self.downstream_credits.pop_front().unwrap();
                self.router.accept_credit(port, vc, now);
            }
            for port in 0..self.feeds.len() {
                let can = self.feeds[port]
                    .front()
                    .is_some_and(|f| self.in_credits[port][usize::from(f.vc)] > 0);
                if can {
                    let f = self.feeds[port].pop_front().unwrap();
                    self.in_credits[port][usize::from(f.vc)] -= 1;
                    self.router.accept_flit(port, f, now);
                }
            }
            let out = self.router.tick(now, &|f: &Flit| f.dest as usize % ports);
            for dep in out.departures {
                self.downstream_credits.push_back((
                    now + self.credit_delay,
                    dep.out_port,
                    usize::from(dep.flit.vc),
                ));
                self.departures.push(dep.flit);
            }
            for c in out.credits {
                self.in_credits[c.in_port][c.vc] += 1;
            }
            if self.departures.len() == self.injected {
                return;
            }
        }
        panic!(
            "router did not drain: {}/{} flits after {} cycles",
            self.departures.len(),
            self.injected,
            cap
        );
    }
}

/// Builds randomized per-port packet feeds. Destinations index output
/// ports via `dest % ports`.
fn feeds_strategy(ports: usize, vcs: usize) -> impl Strategy<Value = Vec<VecDeque<Flit>>> {
    let packet = (0u32..64, 1u8..7);
    let per_port = proptest::collection::vec(packet, 0..5);
    proptest::collection::vec(per_port, ports).prop_map(move |spec| {
        let mut next_id = 0u64;
        spec.into_iter()
            .map(|packets| {
                let mut feed = VecDeque::new();
                for (i, (dest, len)) in packets.into_iter().enumerate() {
                    let id = PacketId::new(next_id);
                    next_id += 1;
                    let vc = (i % vcs) as u8;
                    feed.extend(Flit::packet(id, dest, vc, 0, len));
                }
                feed
            })
            .collect()
    })
}

fn check_integrity(bench: &Bench) {
    // Every injected flit departed exactly once.
    assert_eq!(bench.departures.len(), bench.injected);
    // Per packet: seq strictly increasing, head first, tail last.
    let mut per_packet: HashMap<PacketId, Vec<&Flit>> = HashMap::new();
    for f in &bench.departures {
        per_packet.entry(f.packet).or_default().push(f);
    }
    for (id, flits) in per_packet {
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq as usize, i, "{id}: out-of-order flit");
        }
        assert!(flits[0].kind.is_head(), "{id}: first flit not a head");
        assert!(
            flits.last().unwrap().kind.is_tail(),
            "{id}: last flit not a tail"
        );
        if flits.len() >= 2 {
            let middles = &flits[1..flits.len() - 1];
            assert!(
                middles.iter().all(|f| f.kind == FlitKind::Body),
                "{id}: interior flits must be bodies"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wormhole routers deliver arbitrary packet mixes completely and in
    /// order, for any credit-return delay.
    #[test]
    fn wormhole_drains_everything(
        feeds in feeds_strategy(5, 1),
        credit_delay in 1u64..6,
    ) {
        let mut bench = Bench::new(RouterConfig::wormhole(5, 4), feeds, credit_delay);
        bench.run(5);
        check_integrity(&bench);
    }

    /// Virtual-channel routers likewise.
    #[test]
    fn vc_router_drains_everything(
        feeds in feeds_strategy(5, 2),
        credit_delay in 1u64..6,
    ) {
        let mut bench = Bench::new(RouterConfig::virtual_channel(5, 2, 4), feeds, credit_delay);
        bench.run(5);
        check_integrity(&bench);
    }

    /// Speculative routers likewise — and speculation never loses flits
    /// even when many heads compete.
    #[test]
    fn speculative_router_drains_everything(
        feeds in feeds_strategy(5, 2),
        credit_delay in 1u64..6,
    ) {
        let mut bench = Bench::new(RouterConfig::speculative(5, 2, 4), feeds, credit_delay);
        bench.run(5);
        check_integrity(&bench);
    }

    /// Single-cycle ("unit latency") timing preserves the same
    /// correctness properties.
    #[test]
    fn single_cycle_router_drains_everything(
        feeds in feeds_strategy(5, 2),
        credit_delay in 1u64..4,
    ) {
        let cfg = RouterConfig::speculative(5, 2, 4).into_single_cycle();
        let mut bench = Bench::new(cfg, feeds, credit_delay);
        bench.run(5);
        check_integrity(&bench);
    }

    /// At most one flit departs per output port per cycle (crossbar
    /// contract) — checked by replaying departures against tick cycles.
    #[test]
    fn one_flit_per_output_per_cycle(
        feeds in feeds_strategy(5, 2),
    ) {
        let cfg = RouterConfig::speculative(5, 2, 4);
        let mut router = Router::new(cfg);
        for port in 0..5 {
            router.set_output_credits(port, 64);
        }
        let mut feeds = feeds;
        for now in 0..2_000u64 {
            for (port, feed) in feeds.iter_mut().enumerate() {
                if router.input_occupancy(port, now as usize % 2) < 4 {
                    if let Some(f) = feed.front().copied() {
                        if router.input_occupancy(port, usize::from(f.vc)) < 4 {
                            feed.pop_front();
                            router.accept_flit(port, f, now);
                        }
                    }
                }
            }
            let out = router.tick(now, &|f: &Flit| f.dest as usize % 5);
            let mut seen = [false; 5];
            for dep in &out.departures {
                prop_assert!(!seen[dep.out_port], "two flits on one output in a cycle");
                seen[dep.out_port] = true;
            }
        }
    }
}
