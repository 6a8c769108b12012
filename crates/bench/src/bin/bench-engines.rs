//! Times the cycle-driven reference engine against the event-driven
//! active-set engine on identical sweep points and emits the comparison
//! as JSON — the generator of the repository's `BENCH_baseline.json` and
//! `BENCH_hotpath.json`.
//!
//! Usage: `bench-engines [--json] [--loads 0.3,0.5] [--reps N]
//! [--baseline PATH] [--shards N|auto] [--scale 1,2,4]
//! [--barrier spin|tree] [--rebalance EPOCH,THRESHOLD]
//! [--pattern uniform,transpose,hotspot] [--faults SPEC]
//! [--mesh 8x8,4x4x4,16x16-torus] [--metrics-out PATH]
//! [--trace-out PATH]` (human-readable table by default).
//!
//! `--shards N` (alias: `--threads N`; `auto` picks the host's hardware
//! parallelism clamped to the node count) additionally times the
//! sharded-parallel engine with `N` shards (verified bit-identical
//! first, like the serial engines) and reports its per-phase breakdown
//! including barrier wait count and quiescence fast-forward; `--scale`
//! runs a thread-scaling sweep over the listed shard counts per load;
//! `--barrier` selects the gate implementation (central spin counter vs
//! combining tree). The JSON records `host_parallelism` and flags each
//! sharded row `"oversubscribed"` when the host has fewer cores than
//! shards, so single-core results are recognizable as overhead
//! measurements rather than scaling claims.
//!
//! `--rebalance EPOCH,THRESHOLD` turns on work-metered dynamic shard
//! rebalancing for the sharded rows (timed *with* the knob on, and
//! still verified bit-identical against the serial engines — partition
//! choice never affects results). Each sharded row then reports the
//! migration counters plus `work_imbalance` (mean max/mean shard work
//! per epoch) next to `work_imbalance_off`, the same metric from an
//! instrumented run whose threshold is infinite (meters, never
//! migrates) — the before/after pair that shows what rebalancing
//! bought. `--pattern` sweeps the load grid across traffic patterns
//! (`hotspot` targets node `nodes - 5` at hotness 0.5, a skew that
//! reliably unbalances a row partition).
//!
//! `--faults SPEC` (the [`noc_network::parse_faults`] grammar, e.g.
//! `'link:27:0:flaky@64/16'`) appends one degraded-network companion
//! row per load: the first swept pattern rerun under the fault plan,
//! still verified bit-identical across all three engines first. Those
//! rows carry `faults`, `delivered_ratio`, `dropped_flits`/
//! `dropped_packets` with a per-reason breakdown, and
//! `unreachable_pairs`; every row (healthy or degraded) reports the
//! latency percentiles `p50`/`p95`/`p99`, so the file shows the tail
//! shift a degraded fabric causes next to the healthy baseline. A
//! quantile past the histogram's range is written as `null` (`>5000` in
//! the text table), never as 0.
//!
//! `--metrics-out PATH` streams epoch-boundary metrics snapshots (one
//! JSON object per line — the [`noc_network::JsonlTap`] format) from one
//! extra instrumented run of the first grid point; `--trace-out PATH`
//! writes that run's per-shard phase spans as a Chrome
//! trace-event/Perfetto JSON file (open in `ui.perfetto.dev`). The
//! instrumented run is separate from the timed runs, which stay
//! telemetry-free; the equivalence check, however, always runs *with*
//! telemetry and asserts the cycle-keyed counter stream is bit-identical
//! across all engines, so the exported snapshots are engine-independent
//! by construction.
//!
//! `--mesh` selects the topology. One spec (e.g. `--mesh 16x16`) runs
//! the normal load sweep on that mesh; *several* specs switch to the
//! **scale series** (the generator of `BENCH_scale.json`): each
//! topology is driven at the same fraction of its theoretical capacity
//! and timed under all three engines, reporting simulated cycles per
//! wall-clock second and the cost per node-cycle so per-router overhead
//! is comparable across node counts. A spec is `k`-ary per axis
//! (`8x8`, `4x4x4`, `32x32`) with an optional `-torus` suffix.
//!
//! Every point is first checked for bit-identical results across the two
//! engines (the same invariant `tests/engine_equivalence.rs` enforces),
//! so a timing row can never come from diverging simulations. Each point
//! also reports:
//!
//! * a per-phase wall-clock breakdown of the event engine (router tick
//!   vs link delivery vs source injection vs stats upkeep), measured on
//!   a separate instrumented run so the timed runs stay clean — this is
//!   what lets future perf PRs attribute a regression to a phase;
//! * when a baseline file is available (`--baseline`, defaulting to
//!   `BENCH_baseline.json` in the working directory), the speedup of the
//!   current event engine over the baseline's `event_driven_ms` column.

use noc_network::config::EngineKind;
use noc_network::{
    parse_faults, BarrierKind, DropReason, DropStats, FaultSpec, Histogram, JsonlTap, Mesh,
    Network, NetworkConfig, Percentiles, PhaseNanos, RouterKind, RunResult, TrafficPattern,
};
use repro_bench::meta;
use runqueue::{run_tasks, CancelToken, Task};
use std::time::Instant;

struct Point {
    load: f64,
    pattern: TrafficPattern,
    cycle_ms: f64,
    event_ms: f64,
    speedup: f64,
    ticks_skipped_pct: f64,
    phases: PhaseNanos,
    baseline_event_ms: Option<f64>,
    parallel: Option<ParallelPoint>,
    /// Latency percentiles of the (verified-identical) reference run,
    /// so degraded rows show their tail shift against the healthy ones.
    tail: Tail,
    /// Source→destination flows that delivered tagged packets, and the
    /// worst flow's percentiles — from the telemetry-carrying
    /// verification run (worst = max by (p99, p95, p50)).
    flows: u64,
    flow_p50: u64,
    flow_p95: u64,
    flow_p99: u64,
    /// Fault accounting when this row ran under `--faults`.
    degraded: Option<Degraded>,
}

/// A row's p50/p95/p99 latency upper bounds. A quantile that fell past
/// the histogram's range reads `None` and prints as clipped — JSON
/// `null`, `>LIMIT` in the text table — never as a fake 0.
struct Tail {
    pct: Percentiles,
    /// The histogram's range: a clipped quantile lies beyond it.
    limit: u64,
}

impl Tail {
    fn of(h: &Histogram) -> Self {
        Tail {
            pct: h.percentiles(),
            limit: h.limit(),
        }
    }

    fn quantiles(&self) -> [Option<u64>; 3] {
        [self.pct.p50, self.pct.p95, self.pct.p99]
    }

    /// The `"p50": …, "p95": …, "p99": …` JSON fields.
    fn json(&self) -> String {
        let [p50, p95, p99] = self
            .quantiles()
            .map(|q| q.map_or_else(|| "null".to_string(), |v| v.to_string()));
        format!("\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}")
    }

    /// `p50/p95/p99` for the text table.
    fn text(&self) -> String {
        self.quantiles()
            .map(|q| q.map_or_else(|| format!(">{}", self.limit), |v| v.to_string()))
            .join("/")
    }
}

/// What the fault plan cost one degraded row, from the reference run
/// (every engine is asserted to agree on these numbers first).
struct Degraded {
    delivered_ratio: f64,
    dropped_flits: u64,
    dropped_packets: u64,
    unreachable_pairs: u64,
    drops: DropStats,
}

/// The sharded-parallel engine's timing at one load.
struct ParallelPoint {
    shards: usize,
    ms: f64,
    phases: PhaseNanos,
    /// Simulated cycles — the denominator of barrier waits per cycle.
    cycles: u64,
    /// True when the host has fewer cores than shards, so the timing
    /// measures synchronization overhead under serialization, not
    /// multi-core speedup.
    oversubscribed: bool,
    /// `(shards, ms)` rows of the thread-scaling sweep (`--scale`).
    scaling: Vec<(usize, f64)>,
    /// Work-metered rebalancing counters (`--rebalance`).
    rebalance: Option<RebalanceStats>,
}

/// What rebalancing did at one point, from instrumented runs: the
/// migration counters plus the metered imbalance with the knob live
/// (`work_imbalance`) and with an infinite threshold
/// (`work_imbalance_off` — same meters, no migrations), so the JSON
/// carries its own before/after comparison.
struct RebalanceStats {
    epoch: u64,
    threshold: f64,
    rebalances: u64,
    migrated_nodes: u64,
    work_imbalance: f64,
    work_imbalance_off: f64,
}

impl Point {
    fn speedup_vs_baseline(&self) -> Option<f64> {
        self.baseline_event_ms.map(|b| b / self.event_ms)
    }

    /// Sharded-engine speedup over the committed baseline's serial
    /// event-engine time (the BENCH_hotpath comparison).
    fn parallel_speedup_vs_baseline(&self) -> Option<f64> {
        match (&self.parallel, self.baseline_event_ms) {
            (Some(p), Some(b)) => Some(b / p.ms),
            _ => None,
        }
    }
}

/// One measurement point's full simulator configuration. The rebalance
/// knob applies only when the engine is sharded (serial engines ignore
/// it; results are bit-identical either way).
#[derive(Clone)]
struct PointCfg {
    mesh: Mesh,
    load: f64,
    barrier: BarrierKind,
    pattern: TrafficPattern,
    rebalance: Option<(u64, f64)>,
    /// Fault plan for degraded rows (empty = healthy network).
    faults: Vec<FaultSpec>,
}

fn cfg(pc: &PointCfg) -> NetworkConfig {
    let mut c = NetworkConfig::for_mesh(
        pc.mesh,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(pc.load)
    .with_warmup(300)
    .with_sample(400)
    .with_max_cycles(60_000)
    .with_barrier(pc.barrier)
    .with_pattern(pc.pattern.clone());
    if let Some((epoch, threshold)) = pc.rebalance {
        c = c.with_rebalance(epoch, threshold);
    }
    if !pc.faults.is_empty() {
        c = c.with_faults(pc.faults.clone());
    }
    c
}

/// Returns `(ms per run, % of router ticks skipped, simulated cycles)`.
fn time_engine(pc: &PointCfg, engine: EngineKind, reps: u32) -> (f64, f64, u64) {
    // Warm-up run (also produces the work counters).
    let warm = Network::new(cfg(pc).with_engine(engine)).run();
    let start = Instant::now();
    for _ in 0..reps {
        let r = Network::new(cfg(pc).with_engine(engine)).run();
        assert_eq!(r.cycles, warm.cycles, "non-deterministic run");
    }
    let ms = start.elapsed().as_secs_f64() * 1_000.0 / f64::from(reps);
    (ms, warm.work.skip_fraction() * 100.0, warm.cycles)
}

/// One instrumented run for phase attribution (separate from the timed
/// runs: the clock reads would distort them).
fn phase_profile(pc: &PointCfg, engine: EngineKind) -> PhaseNanos {
    Network::new(cfg(pc).with_engine(engine).with_phase_timing(true))
        .run()
        .phases
        .expect("phase timing was enabled")
}

/// Telemetry epoch of the verification and export runs: short enough
/// that a 60k-cycle run streams a couple hundred snapshots, so the
/// cross-engine identity assertion exercises many boundaries.
const TELEMETRY_EPOCH: u64 = 256;

/// Verifies bit-identity across the engines and returns the reference
/// (cycle-driven) run, whose measurements every timed row reports.
///
/// Verification runs carry telemetry (the timed runs stay free of it),
/// so the contract extends to the observability layer: the cycle-keyed
/// counter snapshot stream, the per-flow latency accumulators, and the
/// per-node drop attribution must all be bit-identical too.
fn verify_equivalence(pc: &PointCfg, threads: Option<usize>) -> RunResult {
    let load = pc.load;
    let instrumented =
        |engine| Network::new(cfg(pc).with_engine(engine).with_telemetry(TELEMETRY_EPOCH)).run();
    let a = instrumented(EngineKind::CycleDriven);
    let b = instrumented(EngineKind::EventDriven);
    let same = |x: &RunResult, what: &str| {
        assert_eq!(a.cycles, x.cycles, "{what} diverged at load {load}");
        assert_eq!(
            a.avg_latency.map(f64::to_bits),
            x.avg_latency.map(f64::to_bits),
            "{what} diverged at load {load}"
        );
        assert_eq!(a.flits_ejected, x.flits_ejected);
        // The fault-accounting columns are part of the bit-identity
        // contract too (all zero on a healthy network).
        assert_eq!(a.dropped_flits, x.dropped_flits, "{what} at load {load}");
        assert_eq!(
            a.dropped_packets, x.dropped_packets,
            "{what} at load {load}"
        );
        assert_eq!(a.drops, x.drops, "{what} at load {load}");
        assert_eq!(a.unreachable_pairs, x.unreachable_pairs);
        assert_eq!(a.delivered_ratio.to_bits(), x.delivered_ratio.to_bits());
        assert_eq!(
            a.metrics.as_ref().map(|m| m.identity()),
            x.metrics.as_ref().map(|m| m.identity()),
            "{what} telemetry stream diverged at load {load}"
        );
        assert_eq!(
            a.flow_stats, x.flow_stats,
            "{what} flow latencies diverged at load {load}"
        );
        assert_eq!(
            a.node_drops, x.node_drops,
            "{what} drop attribution diverged at load {load}"
        );
    };
    same(&b, "event engine");
    if let Some(shards) = threads {
        // The sharded run keeps the rebalance knob exactly as it will be
        // timed: the bit-identity contract covers live migrations too.
        let c = instrumented(EngineKind::parallel(shards));
        same(&c, "sharded engine");
    }
    a
}

/// Resolves a `--pattern` name against the swept topology. The hotspot
/// target sits off-center (`nodes - 5`, hotness 0.5): on an 8x8 mesh
/// that is node 59 in the top row, a skew measured to push a row
/// partition's work imbalance well past typical rebalance thresholds.
fn resolve_pattern(name: &str, mesh: Mesh) -> TrafficPattern {
    match name {
        "uniform" => TrafficPattern::Uniform,
        "transpose" => TrafficPattern::Transpose,
        "bitcomplement" => TrafficPattern::BitComplement,
        "tornado" => TrafficPattern::Tornado,
        "neighbor" => TrafficPattern::NearestNeighbor,
        "hotspot" => TrafficPattern::Hotspot {
            hotspot: mesh.nodes().saturating_sub(5),
            hotness: 0.5,
        },
        other => panic!(
            "unknown pattern {other} (uniform|transpose|bitcomplement|tornado|neighbor|hotspot)"
        ),
    }
}

/// Parses a topology spec like `8x8`, `4x4x4`, or `16x16-torus`. Every
/// axis must share one radix — the simulator models k-ary n-meshes.
fn parse_mesh(spec: &str) -> Mesh {
    let (base, torus) = match spec.strip_suffix("-torus") {
        Some(b) => (b, true),
        None => (spec, false),
    };
    let axes: Vec<usize> = base
        .split('x')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad mesh spec {spec:?} (want e.g. 8x8 or 4x4x4)"))
        })
        .collect();
    let k = axes[0];
    assert!(
        axes.iter().all(|&a| a == k),
        "mesh spec {spec:?} must use one radix on every axis (k-ary n-mesh)"
    );
    let m = Mesh::new(k, axes.len());
    if torus {
        m.into_torus()
    } else {
        m
    }
}

/// Minimal scanner for the baseline JSON: pulls the `offered_load` /
/// `event_driven_ms` pairs out of the `points` array with the shared
/// [`meta::scan_field`] (the workspace is offline and vendors no JSON
/// parser; the files are machine-written by this very binary, so a
/// field scan is reliable).
fn baseline_event_ms(path: &str) -> Vec<(f64, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut pairs = Vec::new();
    for line in text.lines() {
        let Some(load) = meta::scan_field(line, "\"offered_load\":") else {
            continue;
        };
        if let Some(ms) = meta::scan_field(line, "\"event_driven_ms\":") {
            pairs.push((load, ms));
        }
    }
    pairs
}

struct Options {
    json: bool,
    loads: Vec<f64>,
    reps: u32,
    baseline: String,
    /// Shard count for the sharded-parallel engine timing, if requested.
    threads: Option<usize>,
    /// `--shards auto`: resolve the shard count from the host's
    /// parallelism (clamped to the node count) once the mesh is known.
    shards_auto: bool,
    /// Shard counts for the thread-scaling sweep (implies `--shards`'s
    /// verification; empty = off).
    scale: Vec<usize>,
    /// Gate barrier implementation for the sharded engine.
    barrier: BarrierKind,
    /// `(epoch, threshold)` of `--rebalance`, applied to the sharded
    /// rows of the load sweep.
    rebalance: Option<(u64, f64)>,
    /// `--pattern` names, resolved per mesh by [`resolve_pattern`].
    patterns: Vec<String>,
    /// `--faults`: the plan behind the degraded companion rows (empty =
    /// none), plus the spec string verbatim for the JSON rows.
    faults: Vec<FaultSpec>,
    faults_spec: String,
    /// `(spec, topology)` pairs from `--mesh`. One entry runs the load
    /// sweep on that topology; several switch to the scale series.
    meshes: Vec<(String, Mesh)>,
    /// `--metrics-out`: stream epoch snapshots of one instrumented run
    /// of the first grid point to this JSONL file.
    metrics_out: Option<String>,
    /// `--trace-out`: write that run's phase spans as Chrome
    /// trace-event JSON to this file.
    trace_out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        json: false,
        loads: vec![0.05, 0.1, 0.2, 0.3, 0.5],
        reps: 3,
        baseline: "BENCH_baseline.json".to_string(),
        threads: None,
        shards_auto: false,
        scale: Vec::new(),
        barrier: BarrierKind::default(),
        rebalance: None,
        patterns: vec!["uniform".to_string()],
        faults: Vec::new(),
        faults_spec: String::new(),
        meshes: vec![("8x8".to_string(), Mesh::new(8, 2))],
        metrics_out: None,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--mesh" => {
                let list = args
                    .next()
                    .expect("--mesh needs a comma-separated list of specs like 8x8,4x4x4");
                opts.meshes = list
                    .split(',')
                    .map(|s| {
                        let s = s.trim();
                        (s.to_string(), parse_mesh(s))
                    })
                    .collect();
            }
            "--loads" => {
                let list = args.next().expect("--loads needs a comma-separated list");
                opts.loads = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad load value"))
                    .collect();
            }
            "--reps" => {
                opts.reps = args
                    .next()
                    .expect("--reps needs a count")
                    .parse()
                    .expect("bad rep count");
            }
            "--baseline" => {
                opts.baseline = args.next().expect("--baseline needs a path");
            }
            "--threads" | "--shards" => {
                let v = args.next().expect("--shards needs a count or `auto`");
                if v == "auto" {
                    opts.shards_auto = true;
                } else {
                    opts.threads = Some(v.parse().expect("bad shard count"));
                }
            }
            "--rebalance" => {
                let v = args.next().expect("--rebalance needs EPOCH,THRESHOLD");
                let (epoch, threshold) = v
                    .split_once(',')
                    .expect("--rebalance needs EPOCH,THRESHOLD (e.g. 50,1.1)");
                opts.rebalance = Some((
                    epoch.trim().parse().expect("bad rebalance epoch"),
                    threshold.trim().parse().expect("bad rebalance threshold"),
                ));
            }
            "--pattern" => {
                let list = args.next().expect("--pattern needs a comma-separated list");
                opts.patterns = list.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--faults" => {
                let spec = args
                    .next()
                    .expect("--faults needs a spec like 'link:27:0:flaky@64/16'");
                opts.faults = parse_faults(&spec).unwrap_or_else(|e| panic!("--faults: {e}"));
                assert!(!opts.faults.is_empty(), "--faults spec names no faults");
                opts.faults_spec = spec;
            }
            "--scale" => {
                let list = args.next().expect("--scale needs a comma-separated list");
                opts.scale = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad shard count"))
                    .collect();
            }
            "--metrics-out" => {
                opts.metrics_out = Some(args.next().expect("--metrics-out needs a path"));
            }
            "--trace-out" => {
                opts.trace_out = Some(args.next().expect("--trace-out needs a path"));
            }
            "--barrier" => {
                opts.barrier = match args.next().expect("--barrier needs spin|tree").as_str() {
                    "spin" => BarrierKind::Spin,
                    "tree" => BarrierKind::Tree,
                    other => panic!("unknown barrier {other} (spin|tree)"),
                };
            }
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(!opts.loads.is_empty(), "no loads to run");
    assert!(!opts.meshes.is_empty(), "no topologies to run");
    assert!(!opts.patterns.is_empty(), "no patterns to run");
    if opts.shards_auto {
        // `--shards auto`: the host's hardware parallelism, clamped to
        // the (smallest swept) node count — more shards than nodes can
        // never help.
        let nodes = opts.meshes.iter().map(|(_, m)| m.nodes()).min().unwrap();
        opts.threads = Some(meta::host_parallelism().clamp(1, nodes));
    }
    if opts.threads.is_none() && !opts.scale.is_empty() {
        // A scaling sweep implies the parallel engine; default the
        // headline shard count to the largest swept.
        opts.threads = opts.scale.iter().max().copied();
    }
    if opts.rebalance.is_some() && opts.threads.is_none() {
        panic!("--rebalance only applies to the sharded engine; add --shards");
    }
    opts
}

/// Measures one (load, pattern) point end to end (equivalence check,
/// serial timings, phase profile, optional sharded timings).
fn measure_point(
    opts: &Options,
    baseline: &[(f64, f64)],
    mesh: Mesh,
    load: f64,
    pattern: TrafficPattern,
    faulted: bool,
) -> Point {
    let pc = PointCfg {
        mesh,
        load,
        barrier: opts.barrier,
        pattern,
        rebalance: opts.rebalance,
        faults: if faulted {
            opts.faults.clone()
        } else {
            Vec::new()
        },
    };
    let reference = verify_equivalence(&pc, opts.threads);
    let (cycle_ms, _, _) = time_engine(&pc, EngineKind::CycleDriven, opts.reps);
    let (event_ms, skipped, cycles) = time_engine(&pc, EngineKind::EventDriven, opts.reps);
    let phases = phase_profile(&pc, EngineKind::EventDriven);
    let parallel = opts.threads.map(|shards| {
        let scaling: Vec<(usize, f64)> = opts
            .scale
            .iter()
            .map(|&s| {
                let (ms, _, _) = time_engine(&pc, EngineKind::parallel(s), opts.reps);
                (s, ms)
            })
            .collect();
        // The headline shard count reuses its scale row when present
        // — timing the identical configuration twice would waste
        // reps × loads of wall-clock and emit two (noisy,
        // conflicting) numbers for one configuration.
        let ms = scaling.iter().find(|&&(s, _)| s == shards).map_or_else(
            || time_engine(&pc, EngineKind::parallel(shards), opts.reps).0,
            |&(_, ms)| ms,
        );
        let oversubscribed = meta::host_parallelism() < shards;
        if oversubscribed {
            eprintln!(
                "warning: host has {} hardware threads but the sharded engine runs \
                 {shards} shards — its timings measure synchronization overhead under \
                 serialization, not multi-core speedup",
                meta::host_parallelism()
            );
        }
        let sharded_phases = phase_profile(&pc, EngineKind::parallel(shards));
        let rebalance = opts.rebalance.map(|(epoch, threshold)| {
            // The "off" comparison keeps the meters running (same
            // epoch) but can never migrate: an infinite threshold.
            let off = PointCfg {
                rebalance: Some((epoch, f64::INFINITY)),
                ..pc.clone()
            };
            RebalanceStats {
                epoch,
                threshold,
                rebalances: sharded_phases.rebalances,
                migrated_nodes: sharded_phases.migrated_nodes,
                work_imbalance: sharded_phases.work_imbalance(),
                work_imbalance_off: phase_profile(&off, EngineKind::parallel(shards))
                    .work_imbalance(),
            }
        });
        ParallelPoint {
            shards,
            ms,
            phases: sharded_phases,
            cycles,
            oversubscribed,
            scaling,
            rebalance,
        }
    });
    // Baseline files serialize offered_load rounded to 2 decimals
    // (the {:.2} in the JSON emitter), so match with half that
    // resolution. Committed baselines are uniform-traffic sweeps, so
    // only uniform rows may be compared against them.
    // Committed baselines are healthy-network sweeps, so degraded rows
    // never compare against them.
    let baseline_event = (pc.pattern == TrafficPattern::Uniform && !faulted)
        .then(|| {
            baseline
                .iter()
                .find(|(l, _)| (l - load).abs() < 5e-3)
                .map(|&(_, ms)| ms)
        })
        .flatten();
    let worst = reference.flow_stats.as_ref().and_then(|f| f.worst());
    Point {
        load,
        pattern: pc.pattern.clone(),
        cycle_ms,
        event_ms,
        speedup: cycle_ms / event_ms,
        ticks_skipped_pct: skipped,
        phases,
        baseline_event_ms: baseline_event,
        parallel,
        tail: Tail::of(&reference.histogram),
        flows: reference.flow_stats.as_ref().map_or(0, |f| f.flows()),
        flow_p50: worst.map_or(0, |(_, _, p)| p.p50),
        flow_p95: worst.map_or(0, |(_, _, p)| p.p95),
        flow_p99: worst.map_or(0, |(_, _, p)| p.p99),
        degraded: faulted.then_some(Degraded {
            delivered_ratio: reference.delivered_ratio,
            dropped_flits: reference.dropped_flits,
            dropped_packets: reference.dropped_packets,
            unreachable_pairs: reference.unreachable_pairs,
            drops: reference.drops,
        }),
    }
}

/// One instrumented export run for `--metrics-out` / `--trace-out`: the
/// first grid point (first pattern, first load, the fault plan applied
/// when given), run with telemetry and phase timing on the same engine
/// the sweep verifies (sharded when `--shards` is set, event-driven
/// otherwise). Separate from the timed runs, which stay telemetry-free.
fn export_telemetry(opts: &Options, mesh: Mesh) {
    let pc = PointCfg {
        mesh,
        load: opts.loads[0],
        barrier: opts.barrier,
        pattern: resolve_pattern(&opts.patterns[0], mesh),
        rebalance: opts.rebalance,
        faults: opts.faults.clone(),
    };
    let engine = opts
        .threads
        .map_or(EngineKind::EventDriven, EngineKind::parallel);
    let mut net = Network::new(
        cfg(&pc)
            .with_engine(engine)
            .with_telemetry(TELEMETRY_EPOCH)
            .with_phase_timing(true),
    );
    if let Some(path) = &opts.metrics_out {
        let file = std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {path}: {e}"));
        net.set_metrics_tap(Box::new(JsonlTap::new(std::io::BufWriter::new(file))));
    }
    let r = net.run();
    if let Some(path) = &opts.metrics_out {
        let worst = r.flow_stats.as_ref().and_then(|f| f.worst());
        eprintln!(
            "bench-engines: {} epoch snapshot(s) -> {path} (worst flow p99: {} cycles)",
            r.metrics.as_ref().map_or(0, |m| m.len()),
            worst.map_or(0, |(_, _, p)| p.p99),
        );
    }
    if let Some(path) = &opts.trace_out {
        let trace = r
            .trace
            .as_ref()
            .expect("phase timing and telemetry were on");
        let file = std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {path}: {e}"));
        trace
            .write_chrome_trace(&mut std::io::BufWriter::new(file))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!(
            "bench-engines: {} phase span(s) -> {path} (open in ui.perfetto.dev)",
            trace.spans().len()
        );
    }
}

/// The scale-series injection rate: the same fraction of each
/// topology's theoretical capacity (4/k flits/node/cycle on a mesh,
/// 8/k on a torus), so a 32×32 mesh and a 4-ary 3-cube sit at the same
/// relative operating point and the timing differences are engine cost,
/// not congestion.
const SCALE_CAPACITY_FRACTION: f64 = 0.4;

/// One topology of the scale series, timed under all three engines.
struct ScalePoint {
    label: String,
    mesh: Mesh,
    load: f64,
    cycles: u64,
    cycle_ms: f64,
    event_ms: f64,
    sharded_ms: f64,
    /// Instrumented sharded run: barrier waits and fast-forward counts.
    sharded_phases: PhaseNanos,
}

fn run_scale_series(opts: &Options) {
    let shards = opts.threads.unwrap_or(2);
    let host = meta::host_parallelism();
    let oversubscribed = host < shards;
    if oversubscribed {
        eprintln!(
            "warning: host has {host} hardware threads but the sharded engine runs \
             {shards} shards — its timings measure synchronization overhead under \
             serialization, not multi-core speedup"
        );
    }
    let points: Vec<ScalePoint> = opts
        .meshes
        .iter()
        .map(|(label, mesh)| {
            let load = SCALE_CAPACITY_FRACTION * mesh.capacity_flits_per_node();
            // The scale series stays a uniform-traffic, fixed-partition
            // measurement: its point is per-router engine cost across
            // node counts, which rebalancing (a skew response) would
            // only blur.
            let pc = PointCfg {
                mesh: *mesh,
                load,
                barrier: opts.barrier,
                pattern: TrafficPattern::Uniform,
                rebalance: None,
                faults: Vec::new(),
            };
            verify_equivalence(&pc, Some(shards));
            let (cycle_ms, _, cycles) = time_engine(&pc, EngineKind::CycleDriven, opts.reps);
            let (event_ms, _, _) = time_engine(&pc, EngineKind::EventDriven, opts.reps);
            let (sharded_ms, _, _) = time_engine(&pc, EngineKind::parallel(shards), opts.reps);
            ScalePoint {
                label: label.clone(),
                mesh: *mesh,
                load,
                cycles,
                cycle_ms,
                event_ms,
                sharded_ms,
                sharded_phases: phase_profile(&pc, EngineKind::parallel(shards)),
            }
        })
        .collect();

    if opts.json {
        println!("{{");
        println!("  \"recorded\": \"{}\",", meta::today_utc());
        println!(
            "  \"generator\": \"{}\",",
            meta::generator_line("bench-engines")
        );
        println!(
            "  \"interpretation\": \"scale series: each topology is driven at the same \
             fraction of its theoretical capacity and timed under all three engines, with \
             bit-identical results asserted before timing. cycles_per_sec is simulated \
             cycles per wall-clock second; ns_per_node_cycle divides wall-clock over \
             nodes x cycles — the per-router-tick cost that must stay flat as the network \
             grows for the simulator to scale.\","
        );
        println!(
            "  \"benchmark\": \"engine scale series, specVC 2x4, uniform traffic, \
             load = {SCALE_CAPACITY_FRACTION} x capacity\","
        );
        println!(
            "  \"config\": {{\"capacity_fraction\": {SCALE_CAPACITY_FRACTION}, \
             \"warmup\": 300, \"sample_packets\": 400, \"reps\": {}, \"shards\": {shards}, \
             \"barrier\": \"{}\"}},",
            opts.reps, opts.barrier
        );
        println!("  \"host_parallelism\": {host},");
        if host < shards {
            println!(
                "  \"note\": \"host_parallelism < shards: the sharded rows measure the \
                 engine's synchronization overhead under serialization, not multi-core \
                 speedup; rerun on >= {shards} cores for wall-clock scaling\","
            );
        }
        println!("  \"points\": [");
        for (i, p) in points.iter().enumerate() {
            let comma = if i + 1 < points.len() { "," } else { "" };
            let nodes = p.mesh.nodes();
            let engine = |ms: f64| {
                format!(
                    "{{\"ms\": {ms:.2}, \"cycles_per_sec\": {:.0}, \
                     \"ns_per_node_cycle\": {:.2}}}",
                    p.cycles as f64 / ms * 1_000.0,
                    ms * 1e6 / (p.cycles as f64 * nodes as f64)
                )
            };
            let ph = &p.sharded_phases;
            println!(
                "    {{\"mesh\": \"{}\", \"nodes\": {nodes}, \"dims\": {}, \"torus\": {}, \
                 \"offered_load\": {:.4}, \"cycles\": {}, \
                 \"cycle_driven\": {}, \"event_driven\": {}, \"sharded\": {}, \
                 \"event_speedup_vs_cycle\": {:.2}, \
                 \"sharded_speedup_vs_event\": {:.2}, \
                 \"oversubscribed\": {}, \"barrier_waits\": {}, \
                 \"barrier_waits_per_cycle\": {:.3}, \"fast_forwarded_cycles\": {}}}{comma}",
                p.label,
                p.mesh.dims(),
                p.mesh.is_torus(),
                p.load,
                p.cycles,
                engine(p.cycle_ms),
                engine(p.event_ms),
                engine(p.sharded_ms),
                p.cycle_ms / p.event_ms,
                p.event_ms / p.sharded_ms,
                oversubscribed,
                ph.barrier_waits,
                ph.barrier_waits as f64 / p.cycles.max(1) as f64,
                ph.fast_forwarded,
            );
        }
        println!("  ]");
        println!("}}");
    } else {
        println!(
            "mesh         nodes   cycles   cycle-driven   event-driven   sharded({shards})   \
             ns/node-cycle (cyc/evt/shard)"
        );
        for p in &points {
            let nodes = p.mesh.nodes();
            let per_node = |ms: f64| ms * 1e6 / (p.cycles as f64 * nodes as f64);
            println!(
                "{:<11}  {:5}   {:6}   {:9.2} ms   {:9.2} ms   {:9.2} ms   \
                 {:6.2} / {:6.2} / {:6.2}",
                p.label,
                nodes,
                p.cycles,
                p.cycle_ms,
                p.event_ms,
                p.sharded_ms,
                per_node(p.cycle_ms),
                per_node(p.event_ms),
                per_node(p.sharded_ms),
            );
        }
    }
}

fn main() {
    let opts = parse_args();
    if opts.meshes.len() > 1 {
        run_scale_series(&opts);
        return;
    }
    let (mesh_label, mesh) = opts.meshes[0].clone();
    let baseline = baseline_event_ms(&opts.baseline);
    if opts.metrics_out.is_some() || opts.trace_out.is_some() {
        export_telemetry(&opts, mesh);
    }
    // The (pattern, load) grid runs through the shared run queue, like
    // every other batch consumer. Each point's width is the *whole*
    // host: timing needs the machine to itself (concurrent timed runs
    // would perturb each other), so the queue — which keeps the
    // width-sum within the budget — degenerates to serial execution in
    // priority order, and the descending-index priority makes that
    // exactly the input order.
    let host = meta::host_parallelism();
    let mut grid: Vec<(f64, TrafficPattern, bool)> = opts
        .patterns
        .iter()
        .flat_map(|name| {
            let pattern = resolve_pattern(name, mesh);
            opts.loads.iter().map(move |&l| (l, pattern.clone(), false))
        })
        .collect();
    if !opts.faults.is_empty() {
        // Degraded companion rows: the first swept pattern rerun under
        // the fault plan at every load, appended after the healthy grid
        // so readers see the baseline first.
        let pattern = resolve_pattern(&opts.patterns[0], mesh);
        grid.extend(opts.loads.iter().map(|&l| (l, pattern.clone(), true)));
    }
    let tasks: Vec<Task<(f64, TrafficPattern, bool)>> = grid
        .into_iter()
        .enumerate()
        .map(|(i, item)| Task {
            item,
            width: host,
            priority: [-(i as f64), 0.0],
        })
        .collect();
    let slots = run_tasks(
        tasks,
        host,
        &CancelToken::new(),
        |(load, pattern, faulted), _| measure_point(&opts, &baseline, mesh, load, pattern, faulted),
        |_, _| {},
    );
    let points: Vec<Point> = slots
        .into_iter()
        .map(|p| p.expect("every point measured"))
        .collect();

    if opts.json {
        println!("{{");
        println!("  \"recorded\": \"{}\",", meta::today_utc());
        // Record the *actual* argv so the file can be regenerated from
        // its own metadata (a fixed string silently drifts from the
        // flags that produced the data).
        println!(
            "  \"generator\": \"{}\",",
            meta::generator_line("bench-engines")
        );
        println!(
            "  \"interpretation\": \"cycle_driven_ms is the reference engine (tick every \
             router every cycle); event_driven_ms is the default active-set engine. \
             Identical results are asserted before timing. phase_pct attributes the event \
             engine's wall-clock to its per-cycle phases; baseline_event_driven_ms and \
             event_speedup_vs_baseline compare against the committed baseline file.\","
        );
        println!(
            "  \"benchmark\": \"engine comparison, {mesh_label} ({} nodes), specVC 2x4, \
             patterns: {}\",",
            mesh.nodes(),
            opts.patterns.join(",")
        );
        let rebalance_cfg = opts.rebalance.map_or_else(String::new, |(e, t)| {
            format!(", \"rebalance_epoch\": {e}, \"rebalance_threshold\": {t}")
        });
        let faults_cfg = if opts.faults.is_empty() {
            String::new()
        } else {
            format!(", \"faults\": \"{}\"", opts.faults_spec)
        };
        println!(
            "  \"config\": {{\"warmup\": 300, \"sample_packets\": 400, \
             \"reps\": {}{rebalance_cfg}{faults_cfg}}},",
            opts.reps
        );
        println!("  \"host_parallelism\": {host},");
        if let Some(shards) = opts.threads {
            if host < shards {
                println!(
                    "  \"note\": \"host_parallelism < shards: the parallel rows measure \
                     synchronization overhead under serialization, not scaling — the \
                     per-shard compute split (see parallel.phase_pct.router_tick vs the \
                     serial router_tick share) is the signal that the work division is \
                     real; run on >= {shards} cores for wall-clock speedup\","
                );
            }
        }
        println!("  \"points\": [");
        for (i, p) in points.iter().enumerate() {
            let comma = if i + 1 < points.len() { "," } else { "" };
            let baseline_fields = match (p.baseline_event_ms, p.speedup_vs_baseline()) {
                (Some(b), Some(s)) => format!(
                    ", \"baseline_event_driven_ms\": {b:.2}, \
                     \"event_speedup_vs_baseline\": {s:.2}"
                ),
                _ => String::new(),
            };
            let parallel_fields = p.parallel.as_ref().map_or_else(String::new, |pp| {
                let ph = &pp.phases;
                let vs_baseline = p
                    .parallel_speedup_vs_baseline()
                    .map_or_else(String::new, |s| {
                        format!(", \"speedup_vs_baseline_event\": {s:.2}")
                    });
                let scaling = if pp.scaling.is_empty() {
                    String::new()
                } else {
                    let rows: Vec<String> = pp
                        .scaling
                        .iter()
                        .map(|&(s, ms)| {
                            format!(
                                "{{\"shards\": {s}, \"ms\": {ms:.2}, \
                                 \"speedup_vs_event\": {:.2}}}",
                                p.event_ms / ms
                            )
                        })
                        .collect();
                    format!(", \"thread_scaling\": [{}]", rows.join(", "))
                };
                let rebalance = pp.rebalance.as_ref().map_or_else(String::new, |rb| {
                    format!(
                        ", \"rebalance\": {{\"epoch\": {}, \"threshold\": {}, \
                         \"rebalances\": {}, \"migrated_nodes\": {}, \
                         \"work_imbalance\": {:.3}, \"work_imbalance_off\": {:.3}}}",
                        rb.epoch,
                        rb.threshold,
                        rb.rebalances,
                        rb.migrated_nodes,
                        rb.work_imbalance,
                        rb.work_imbalance_off,
                    )
                });
                format!(
                    ", \"parallel\": {{\"shards\": {}, \"ms\": {:.2}, \
                     \"speedup_vs_event\": {:.2}{vs_baseline}, \
                     \"oversubscribed\": {}, \"barrier\": \"{}\", \
                     \"barrier_waits\": {}, \"barrier_waits_per_cycle\": {:.3}, \
                     \"fast_forwarded_cycles\": {}, \
                     \"phase_pct\": {{\"delivery\": {:.1}, \"sources\": {:.1}, \
                     \"router_tick\": {:.1}, \"stats\": {:.1}, \
                     \"barrier\": {:.1}}}{rebalance}{scaling}}}",
                    pp.shards,
                    pp.ms,
                    p.event_ms / pp.ms,
                    pp.oversubscribed,
                    opts.barrier,
                    ph.barrier_waits,
                    ph.barrier_waits as f64 / pp.cycles.max(1) as f64,
                    ph.fast_forwarded,
                    ph.pct(ph.delivery),
                    ph.pct(ph.sources),
                    ph.pct(ph.router),
                    ph.pct(ph.stats),
                    ph.pct(ph.barrier),
                )
            });
            let degraded_fields = p.degraded.as_ref().map_or_else(String::new, |d| {
                let by_reason: Vec<String> = DropReason::ALL
                    .iter()
                    .filter(|&&r| d.drops.flits[r as usize] > 0)
                    .map(|&r| {
                        format!(
                            "\"{}\": {{\"flits\": {}, \"packets\": {}}}",
                            r.label(),
                            d.drops.flits[r as usize],
                            d.drops.packets[r as usize]
                        )
                    })
                    .collect();
                format!(
                    ", \"faults\": \"{}\", \"delivered_ratio\": {:.4}, \
                     \"dropped_flits\": {}, \"dropped_packets\": {}, \
                     \"unreachable_pairs\": {}, \"dropped_by_reason\": {{{}}}",
                    opts.faults_spec,
                    d.delivered_ratio,
                    d.dropped_flits,
                    d.dropped_packets,
                    d.unreachable_pairs,
                    by_reason.join(", ")
                )
            });
            let ph = &p.phases;
            println!(
                "    {{\"offered_load\": {:.2}, \"pattern\": \"{}\", \
                 \"cycle_driven_ms\": {:.2}, \
                 \"event_driven_ms\": {:.2}, \"speedup\": {:.2}, \
                 \"router_ticks_skipped_pct\": {:.1}, {}, \
                 \"flows\": {}, \"flow_p50\": {}, \"flow_p95\": {}, \"flow_p99\": {}, \
                 \"phase_pct\": {{\"delivery\": {:.1}, \"sources\": {:.1}, \
                 \"router_tick\": {:.1}, \"stats\": {:.1}}}\
                 {degraded_fields}{baseline_fields}{parallel_fields}}}{comma}",
                p.load,
                p.pattern,
                p.cycle_ms,
                p.event_ms,
                p.speedup,
                p.ticks_skipped_pct,
                p.tail.json(),
                p.flows,
                p.flow_p50,
                p.flow_p95,
                p.flow_p99,
                ph.pct(ph.delivery),
                ph.pct(ph.sources),
                ph.pct(ph.router),
                ph.pct(ph.stats),
            );
        }
        println!("  ]");
        println!("}}");
    } else {
        println!(
            "load   pattern            cycle-driven   event-driven   speedup   \
             ticks skipped   vs baseline   phases"
        );
        for p in &points {
            let vs = p
                .speedup_vs_baseline()
                .map_or_else(|| "    n/a".to_string(), |s| format!("{s:6.2}x"));
            println!(
                "{:4.2}   {:<16}   {:9.2} ms   {:9.2} ms   {:6.2}x   {:6.1}%        {}   [{}]",
                p.load,
                p.pattern.to_string(),
                p.cycle_ms,
                p.event_ms,
                p.speedup,
                p.ticks_skipped_pct,
                vs,
                p.phases
            );
            println!(
                "       flows: {} measured, worst p50/p95/p99 {}/{}/{} cycles",
                p.flows, p.flow_p50, p.flow_p95, p.flow_p99
            );
            if let Some(d) = &p.degraded {
                println!(
                    "       degraded({}): delivered {:.4}, dropped {} flits / {} packets, \
                     {} unreachable pairs, p50/p95/p99 {}",
                    opts.faults_spec,
                    d.delivered_ratio,
                    d.dropped_flits,
                    d.dropped_packets,
                    d.unreachable_pairs,
                    p.tail.text(),
                );
            }
            if let Some(pp) = &p.parallel {
                println!(
                    "       parallel({} shards): {:9.2} ms   {:6.2}x vs event   [{}]",
                    pp.shards,
                    pp.ms,
                    p.event_ms / pp.ms,
                    pp.phases
                );
                if let Some(rb) = &pp.rebalance {
                    println!(
                        "         rebalance(epoch {}, threshold {}): {} migrations, \
                         {} nodes moved, imbalance {:.3} (off: {:.3})",
                        rb.epoch,
                        rb.threshold,
                        rb.rebalances,
                        rb.migrated_nodes,
                        rb.work_imbalance,
                        rb.work_imbalance_off,
                    );
                }
                for &(s, ms) in &pp.scaling {
                    println!(
                        "         scale {s:2} shards: {ms:9.2} ms   {:6.2}x vs event",
                        p.event_ms / ms
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Far past hotspot saturation, tagged packets wait at their sources
    /// for longer than the histogram's 5000-cycle range: the tail is
    /// clipped and must print as clipped, not as 0.
    #[test]
    fn clipped_tail_prints_as_null_not_zero() {
        let cfg = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 4 })
            .with_pattern(TrafficPattern::Hotspot {
                hotspot: 5,
                hotness: 0.5,
            })
            .with_injection(0.6)
            .with_warmup(100)
            .with_sample(1_000)
            .with_max_cycles(12_000);
        let run = Network::new(cfg).run();
        assert!(run.saturated, "the point must be past saturation");
        assert!(run.histogram.overflow() > 0, "{}", run.histogram);
        let tail = Tail::of(&run.histogram);
        assert_eq!(tail.pct.p99, None);
        assert!(tail.json().ends_with("\"p99\": null"), "{}", tail.json());
        assert!(tail.text().ends_with("/>5000"), "{}", tail.text());
    }
}
