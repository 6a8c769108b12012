//! Pipeline trace walkthrough: watch single packets move through each
//! router architecture, event by event — the cycle-level view behind the
//! paper's Figure 4 dependency diagrams.
//!
//! Run with: `cargo run --release --example pipeline_trace`

use router_core::{Flit, PacketId, Router, RouterConfig};

fn walk(title: &str, cfg: RouterConfig) {
    println!("== {title} ==");
    let mut r = Router::new(cfg);
    for port in 0..cfg.ports {
        r.set_output_credits(port, 8);
    }
    r.enable_trace(64);
    // A two-flit packet entering port 0, destined out port 2.
    for (i, f) in Flit::packet(PacketId::new(1), 2, 0, 0, 2)
        .into_iter()
        .enumerate()
    {
        r.accept_flit(0, f, 100 + i as u64);
    }
    for now in 100..110 {
        let _ = r.tick(now, &|f: &Flit| f.dest as usize);
    }
    print!("{}", r.trace().render());
    println!();
}

fn contention_demo() {
    println!("== Speculation under contention (specVC, 1 VC/port) ==");
    let cfg = RouterConfig::speculative(5, 1, 4);
    let mut r = Router::new(cfg);
    for port in 0..5 {
        r.set_output_credits(port, 8);
    }
    r.enable_trace(64);
    // Packet A's head claims output 2's only VC, then its body stalls;
    // packet B speculates for the same output and wastes a crossbar slot.
    r.accept_flit(0, Flit::packet(PacketId::new(1), 2, 0, 0, 4)[0], 100);
    r.accept_flit(1, Flit::head(PacketId::new(2), 2, 0, 0), 101);
    for now in 100..108 {
        let _ = r.tick(now, &|f: &Flit| f.dest as usize);
    }
    print!("{}", r.trace().render());
    println!();
    println!(
        "pkt#2's SA(wasted) entries are the price of speculating while\n\
         pkt#1 owns the output VC — wasted crossbar slots, never lost\n\
         throughput (non-speculative requests always have priority)."
    );
}

fn main() {
    walk(
        "Wormhole (3 stages: RC | SA | ST)",
        RouterConfig::wormhole(5, 8),
    );
    walk(
        "Virtual-channel (4 stages: RC | VA | SA | ST)",
        RouterConfig::virtual_channel(5, 2, 4),
    );
    walk(
        "Speculative VC (3 stages: RC | VA∥SA | ST)",
        RouterConfig::speculative(5, 2, 4),
    );
    walk(
        "Single-cycle / unit-latency (everything in one cycle)",
        RouterConfig::speculative(5, 2, 4).into_single_cycle(),
    );
    contention_demo();
}
