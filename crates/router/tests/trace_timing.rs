//! Exact pipeline timing, verified through the event trace: the
//! cycle-by-cycle stage sequences of the paper's three architectures.

use router_core::{Flit, PacketId, PipelineEvent, Router, RouterConfig, TraceEntry};

fn wired(cfg: RouterConfig) -> Router {
    let mut r = Router::new(cfg);
    for port in 0..cfg.ports {
        r.set_output_credits(port, 8);
    }
    r.enable_trace(256);
    r
}

fn run(r: &mut Router, from: u64, to: u64) {
    let route = |f: &Flit| f.dest as usize % r.config().ports;
    let _ = route; // silence per-iteration capture warnings
    for now in from..=to {
        let ports = r.config().ports;
        let _ = r.tick(now, &move |f: &Flit| f.dest as usize % ports);
    }
}

fn events_of(r: &Router, packet: PacketId) -> Vec<(u64, PipelineEvent)> {
    r.trace()
        .of_packet(packet)
        .into_iter()
        .map(|e: TraceEntry| (e.cycle, e.event))
        .collect()
}

/// Wormhole head: BW+RC at t, SA at t+1, ST at t+2 — the 3-stage pipeline.
#[test]
fn wormhole_head_stage_sequence() {
    let mut r = wired(RouterConfig::wormhole(5, 8));
    let id = PacketId::new(1);
    r.accept_flit(0, Flit::head(id, 7, 0, 0), 10);
    run(&mut r, 10, 14);
    assert_eq!(
        events_of(&r, id),
        vec![
            (10, PipelineEvent::Arrived),
            (10, PipelineEvent::RouteComputed { out_port: 2 }),
            (11, PipelineEvent::SaGranted { speculative: false }),
            (
                12,
                PipelineEvent::Traversed {
                    out_port: 2,
                    out_vc: 0
                }
            ),
        ]
    );
}

/// VC head: BW+RC at t, VA at t+1, SA at t+2, ST at t+3 — 4 stages.
#[test]
fn vc_head_stage_sequence() {
    let mut r = wired(RouterConfig::virtual_channel(5, 2, 4));
    let id = PacketId::new(2);
    r.accept_flit(0, Flit::head(id, 7, 0, 0), 20);
    run(&mut r, 20, 25);
    assert_eq!(
        events_of(&r, id),
        vec![
            (20, PipelineEvent::Arrived),
            (20, PipelineEvent::RouteComputed { out_port: 2 }),
            (21, PipelineEvent::VaGranted { out_vc: 0 }),
            (22, PipelineEvent::SaGranted { speculative: false }),
            (
                23,
                PipelineEvent::Traversed {
                    out_port: 2,
                    out_vc: 0
                }
            ),
        ]
    );
}

/// Speculative head: BW+RC at t, VA *and* speculative SA at t+1,
/// ST at t+2 — back to 3 stages. This is the paper's core mechanism.
#[test]
fn speculative_head_stage_sequence() {
    let mut r = wired(RouterConfig::speculative(5, 2, 4));
    let id = PacketId::new(3);
    r.accept_flit(0, Flit::head(id, 7, 0, 0), 30);
    run(&mut r, 30, 34);
    assert_eq!(
        events_of(&r, id),
        vec![
            (30, PipelineEvent::Arrived),
            (30, PipelineEvent::RouteComputed { out_port: 2 }),
            (31, PipelineEvent::VaGranted { out_vc: 0 }),
            (31, PipelineEvent::SaGranted { speculative: true }),
            (
                32,
                PipelineEvent::Traversed {
                    out_port: 2,
                    out_vc: 0
                }
            ),
        ]
    );
}

/// Single-cycle ("unit latency") timing: everything in the arrival cycle.
#[test]
fn single_cycle_head_stage_sequence() {
    let mut r = wired(RouterConfig::speculative(5, 2, 4).into_single_cycle());
    let id = PacketId::new(4);
    r.accept_flit(0, Flit::head(id, 7, 0, 0), 40);
    run(&mut r, 40, 41);
    let events = events_of(&r, id);
    assert_eq!(events.len(), 5, "{events:?}");
    assert!(events.iter().all(|(cycle, _)| *cycle == 40), "{events:?}");
}

/// A failed speculation shows up as SpecWasted for the loser while the
/// winner streams non-speculatively; the loser retries and eventually
/// traverses.
#[test]
fn wasted_speculation_is_observable() {
    let mut r = wired(RouterConfig::speculative(5, 1, 4));
    let a = PacketId::new(5);
    let b = PacketId::new(6);
    // A's head grabs the only output VC of port 2, then A stalls (no more
    // flits offered); B arrives next cycle and speculates into the void.
    r.accept_flit(0, Flit::packet(a, 7, 0, 0, 4)[0], 50);
    r.accept_flit(1, Flit::head(b, 7, 0, 0), 51);
    run(&mut r, 50, 58);
    let b_events = events_of(&r, b);
    assert!(
        b_events.contains(&(52, PipelineEvent::SpecWasted)),
        "B's first speculative bid must be wasted: {b_events:?}"
    );
    assert!(
        !b_events
            .iter()
            .any(|(_, e)| matches!(e, PipelineEvent::Traversed { .. })),
        "B cannot traverse while A owns the VC: {b_events:?}"
    );
}

/// Body flits ride the pipeline one cycle apart: the trace shows
/// back-to-back STs.
#[test]
fn body_flits_stream_without_bubbles() {
    let mut r = wired(RouterConfig::virtual_channel(5, 2, 4));
    let id = PacketId::new(7);
    for (i, f) in Flit::packet(id, 7, 0, 0, 4).into_iter().enumerate() {
        r.accept_flit(0, f, 60 + i as u64);
    }
    run(&mut r, 60, 75);
    let st_cycles: Vec<u64> = events_of(&r, id)
        .into_iter()
        .filter(|(_, e)| matches!(e, PipelineEvent::Traversed { .. }))
        .map(|(c, _)| c)
        .collect();
    assert_eq!(st_cycles, vec![63, 64, 65, 66]);
}

/// The trace renders into a readable pipeline log.
#[test]
fn trace_render_readable() {
    let mut r = wired(RouterConfig::wormhole(5, 8));
    r.accept_flit(0, Flit::head(PacketId::new(8), 7, 0, 0), 70);
    run(&mut r, 70, 73);
    let text = r.trace().render();
    assert!(text.contains("RC->p2"));
    assert!(text.contains("ST->p2v0"));
}
