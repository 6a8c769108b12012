//! The telemetry layer rides the same bit-identity contract as the
//! engines themselves: the epoch-streamed metrics snapshots (counter
//! section), the per-flow tagged-sample latencies, and the per-node drop
//! attribution must be **bit-identical** across every engine kind, shard
//! count, and thread schedule — with faults and live rebalancing in
//! play.
//!
//! Every engine kind emits each snapshot from the serial section, right
//! after the commit of the cycle that reaches the epoch boundary,
//! absorbing shard counters in fixed shard order; the schedules differ
//! in which cycles they execute, skip, or split across shards. These
//! tests are the proof that every schedule produces one stream.

use peh_dally::noc_network::config::EngineKind;
use peh_dally::noc_network::{
    parse_faults, JsonlTap, Network, NetworkConfig, RouterKind, RunResult,
};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The grid's telemetry epoch: short enough that even the quick sample
/// run streams dozens of snapshots, so the identity assertion exercises
/// many boundaries (including ones the quiescence fast-forward must
/// stop at).
const EPOCH: u64 = 16;

/// A faulted, skew-loaded base configuration with rebalancing armed:
/// every accounting path (drops by reason, unreachable pairs, flow
/// tails, migrations) is live.
fn grid_cfg() -> NetworkConfig {
    NetworkConfig::mesh(
        4,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_warmup(120)
    .with_sample(100)
    .with_max_cycles(40_000)
    .with_injection(0.3)
    .with_faults(
        parse_faults("link:5:0:flaky@40/10; router:10:dead@180; link:9:2:loss@0.1")
            .expect("grid fault spec"),
    )
    .with_rebalance(50, 1.1)
    .with_telemetry(EPOCH)
}

fn run(cfg: NetworkConfig, engine: EngineKind) -> RunResult {
    Network::new(cfg.with_engine(engine)).run()
}

/// Asserts the full observability surface of `r` matches the reference.
fn assert_same_telemetry(label: &str, reference: &RunResult, r: &RunResult) {
    let a = reference.metrics.as_ref().expect("telemetry on");
    let b = r.metrics.as_ref().expect("telemetry on");
    assert_eq!(
        a.counter_names(),
        b.counter_names(),
        "{label}: counter schema"
    );
    assert_eq!(
        a.identity(),
        b.identity(),
        "{label}: snapshot stream (cycles × counters) diverged"
    );
    // Every flow sample, compared as the sorted (src, dst, latency) log.
    assert_eq!(reference.flow_stats, r.flow_stats, "{label}: flow stats");
    assert_eq!(reference.node_drops, r.node_drops, "{label}: node drops");
    // The telemetry must also never perturb the run it observes.
    assert_eq!(reference.cycles, r.cycles, "{label}: cycles");
    assert_eq!(
        reference.avg_latency.map(f64::to_bits),
        r.avg_latency.map(f64::to_bits),
        "{label}: avg latency"
    );
    assert_eq!(reference.drops, r.drops, "{label}: aggregate drops");
}

/// The headline grid: cycle-driven reference vs event-driven and the
/// sharded engine at shard counts {1, 2, 4, 7} (including one that does
/// not divide the node count), faults and rebalancing live throughout.
#[test]
fn metrics_stream_is_bit_identical_across_engines_shards_and_barriers() {
    let reference = run(grid_cfg(), EngineKind::CycleDriven);
    let metrics = reference.metrics.as_ref().expect("telemetry on");
    assert!(
        metrics.len() > 10,
        "the grid run must stream many epochs (got {})",
        metrics.len()
    );
    let flows = reference.flow_stats.as_ref().expect("telemetry on");
    assert!(flows.flows() > 0, "tagged flows must be attributed");
    assert!(
        reference.dropped_flits > 0,
        "a faulted grid run must drop something"
    );

    // The flits and credits on the wires are a gauge, but a level the
    // simulation fixes: every schedule must count the same ones.
    let pending = gauge(&reference, "wheel_pending");
    assert!(
        pending.iter().any(|&p| p > 0),
        "the reference must have traffic on the wires"
    );

    let mut engines = vec![EngineKind::EventDriven];
    engines.extend([1usize, 2, 4, 7].map(EngineKind::parallel));
    for engine in engines {
        let label = format!("{engine:?}");
        let r = run(grid_cfg(), engine);
        assert_same_telemetry(&label, &reference, &r);
        assert_eq!(
            gauge(&r, "wheel_pending"),
            pending,
            "{label}: wheel_pending gauge"
        );
    }
}

/// One gauge's value at every snapshot of `r`'s stream.
fn gauge(r: &RunResult, name: &str) -> Vec<u64> {
    let m = r.metrics.as_ref().expect("telemetry on");
    (0..m.len())
        .map(|i| m.value(i, name).expect("named gauge"))
        .collect()
}

/// The stream's shape: snapshots land exactly on epoch boundaries, in
/// order, and every counter is cumulative (monotone along the stream).
#[test]
fn snapshots_land_on_epoch_boundaries_and_counters_are_cumulative() {
    let r = run(grid_cfg(), EngineKind::EventDriven);
    let m = r.metrics.as_ref().expect("telemetry on");
    let (cycles, _) = m.identity();
    for (i, &cycle) in cycles.iter().enumerate() {
        assert_eq!(
            cycle,
            (i as u64 + 1) * EPOCH,
            "snapshot {i} off its epoch boundary"
        );
    }
    for name in m.counter_names() {
        let mut prev = 0;
        for i in 0..m.len() {
            let v = m.value(i, name).expect("named counter");
            assert!(v >= prev, "{name} regressed at snapshot {i}");
            prev = v;
        }
    }
    // The boundary counters reconcile with the run's own books. The run
    // ends the instant the sample completes — mid-epoch — so the last
    // snapshot sits strictly before that: it can only have seen at most
    // the full sample.
    let last = m.len() - 1;
    let done = m.value(last, "tagged_done").expect("counter");
    assert!(
        done > 0 && done <= 100,
        "the last snapshot's tagged_done ({done}) must sit within the sample"
    );
    assert!(
        m.value(last, "flits_ejected").expect("counter") > 0,
        "boundary counters must carry real traffic"
    );
}

/// Per-node drop attribution reconciles with the aggregate drop books,
/// and only nodes that dropped something carry nonzero rows.
#[test]
fn node_drops_reconcile_with_the_aggregate() {
    let r = run(grid_cfg(), EngineKind::CycleDriven);
    let total_flits: u64 = r.node_drops.iter().map(|d| d.total_flits()).sum();
    let total_packets: u64 = r.node_drops.iter().map(|d| d.total_packets()).sum();
    assert_eq!(total_flits, r.dropped_flits, "per-node flit drops");
    assert_eq!(total_packets, r.dropped_packets, "per-node packet drops");
    assert!(
        r.node_drops.iter().any(|d| d.total_flits() > 0),
        "the faulted run must attribute drops to nodes"
    );
    for (reason, (&f, &p)) in r.drops.flits.iter().zip(r.drops.packets.iter()).enumerate() {
        let nf: u64 = r.node_drops.iter().map(|d| d.flits[reason]).sum();
        let np: u64 = r.node_drops.iter().map(|d| d.packets[reason]).sum();
        assert_eq!(nf, f, "reason {reason} flits");
        assert_eq!(np, p, "reason {reason} packets");
    }
}

/// Flow percentiles obey their definitions: every flow's p50 ≤ p95 ≤
/// p99, the worst flow dominates by the (p99, p95, p50) order, and the
/// sample count reconciles with the tagged sample size.
#[test]
fn flow_percentiles_are_ordered_and_reconcile() {
    let r = run(grid_cfg(), EngineKind::EventDriven);
    let flows = r.flow_stats.as_ref().expect("telemetry on");
    // One flow sample per *ejected* tagged packet: the fault plan drops
    // some tagged heads, and a dropped packet has no ejection tail.
    assert!(
        flows.samples() > 0 && flows.samples() <= 100,
        "flow samples ({}) must sit within the tagged sample",
        flows.samples()
    );
    let (ws, wd, worst) = flows.worst().expect("flows measured");
    assert!(worst.p50 <= worst.p95 && worst.p95 <= worst.p99);
    let nodes = flows.nodes();
    for src in 0..nodes {
        for dst in 0..nodes {
            let Some(p) = flows.percentiles(src, dst) else {
                continue;
            };
            assert!(p.p50 <= p.p95 && p.p95 <= p.p99, "flow {src}->{dst}");
            assert!(
                (worst.p99, worst.p95, worst.p50) >= (p.p99, p.p95, p.p50),
                "flow {src}->{dst} beats the reported worst ({ws}->{wd})"
            );
        }
    }
}

/// An in-memory sink a test keeps a handle to while the tap owns the
/// other.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a run exports matches what it retained: a streaming tap writes
/// one JSONL line per snapshot of `RunResult::metrics`, carrying that
/// snapshot's cycle, epoch and counter values, and a 2-shard run's
/// phase trace has one lane per shard and one Chrome trace event per
/// span.
#[test]
fn streaming_tap_and_phase_trace_match_the_run() {
    let cfg = grid_cfg()
        .with_engine(EngineKind::parallel(2))
        .with_phase_timing(true);
    let buf = SharedBuf::default();
    let mut net = Network::new(cfg);
    net.set_metrics_tap(Box::new(JsonlTap::new(buf.clone())));
    let r = net.run();

    let log = r.metrics.as_ref().expect("telemetry on");
    assert!(log.len() > 1, "the run must stream several snapshots");
    let last = log.len() - 1;
    assert!(
        log.value(last, "dropped_flits_link_down").expect("counter") > 0,
        "the flaky link must drop flits before the last snapshot"
    );
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("UTF-8 stream");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), log.len(), "one JSONL line per snapshot");
    for (i, line) in lines.iter().enumerate() {
        let head = format!("{{\"cycle\": {}, \"epoch\": {i},", log.cycle(i));
        assert!(line.starts_with(&head), "line {i} opens {head}: {line}");
        let counters = log
            .counter_names()
            .iter()
            .zip(log.counters(i))
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        assert!(
            line.contains(&format!("\"counters\": {{{counters}}}")),
            "line {i} carries the log's counters: {line}"
        );
    }

    let trace = r.trace.as_ref().expect("telemetry and phase timing on");
    assert!(!trace.is_empty(), "the run must record phase spans");
    assert_eq!(trace.lanes(), 2, "one lane per shard");
    for lane in 0..2 {
        assert!(
            trace.spans().iter().any(|span| span.lane == lane),
            "lane {lane} records spans"
        );
    }
    let mut chrome = Vec::new();
    trace
        .write_chrome_trace(&mut chrome)
        .expect("in-memory write");
    let chrome = String::from_utf8(chrome).expect("UTF-8 trace");
    assert_eq!(
        chrome.matches("\"ph\": \"X\"").count(),
        trace.spans().len(),
        "one complete event per span"
    );
}
