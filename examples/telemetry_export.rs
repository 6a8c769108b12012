//! Telemetry export: one instrumented run, written out as a metrics
//! stream and a phase trace.
//!
//! An 8×8 mesh of speculative VC routers (2 VCs × 4 buffers) at 30%
//! load with a flapping link runs on two shards. Every 256-cycle epoch
//! snapshot streams through a `JsonlTap`, one JSON object per line, and
//! the per-shard phase spans are written as Chrome trace-event JSON:
//! open it in <https://ui.perfetto.dev> (or `chrome://tracing`).
//!
//! Run with: `cargo run --release --example telemetry_export -- [METRICS] [TRACE]`
//! (the output paths default to `metrics.jsonl` and `trace.json`).

use noc_network::config::EngineKind;
use noc_network::{parse_faults, JsonlTap, Network, NetworkConfig, RouterKind};
use std::fs::File;
use std::io::{BufWriter, Write};

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let metrics_path = args.next().unwrap_or_else(|| "metrics.jsonl".into());
    let trace_path = args.next().unwrap_or_else(|| "trace.json".into());

    let cfg = NetworkConfig::mesh(
        8,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(0.3)
    .with_warmup(300)
    .with_sample(400)
    .with_max_cycles(60_000)
    .with_faults(parse_faults("link:27:0:flaky@64/16").expect("valid fault spec"))
    .with_engine(EngineKind::parallel(2))
    .with_telemetry(256)
    .with_phase_timing(true);
    let mut net = Network::new(cfg);
    // Unbuffered: the tap writes each snapshot line with one call and
    // panics on a failed write, so no error can be lost when the run
    // drops it.
    net.set_metrics_tap(Box::new(JsonlTap::new(File::create(&metrics_path)?)));
    let r = net.run();

    let trace = r.trace.as_ref().expect("telemetry and phase timing on");
    let mut out = BufWriter::new(File::create(&trace_path)?);
    trace.write_chrome_trace(&mut out)?;
    out.flush()?;
    let snapshots = r.metrics.as_ref().map_or(0, |m| m.len());
    let worst = r.flow_stats.as_ref().and_then(|f| f.worst());
    println!("{snapshots} epoch snapshot(s) -> {metrics_path}");
    println!(
        "{} phase span(s) on {} lane(s) -> {trace_path}",
        trace.spans().len(),
        trace.lanes()
    );
    println!(
        "{} cycles, {} flits dropped, worst flow p99 {}",
        r.cycles,
        r.dropped_flits,
        worst.map_or_else(|| "-".into(), |(_, _, p)| format!("{} cycles", p.p99))
    );
    Ok(())
}
