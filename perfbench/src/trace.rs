//! The traced pass: spans recorded by the benchmark around its calls into
//! each layer, a benchmark-side runner that reads the engine's own
//! counters, and the per-layer metrics derived from both.

use crate::json;
use crate::workload::{CORES, RUNNER_TELEMETRY_EPOCH};
use arbitration::{Grant, MatrixArbiter, RoundRobinArbiter, SeparableAllocator};
use noc_network::stats::EngineWork;
use noc_network::{LoadPoint, Network, NetworkConfig, PhaseNanos, RouterKind};
use router_core::RouterStats;
use runqueue::{CancelToken, NodeDrops, PointKey, PointRecord, PointRunner};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The batch point the span belongs to.
    pub point: Option<usize>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans kept in memory until the pass ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    batch: AtomicUsize,
    next_point: AtomicUsize,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            batch: AtomicUsize::new(0),
            next_point: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a traced thread panicked while recording a span")
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &'static str, parent: Option<usize>, point: Option<usize>) -> usize {
        let start = self.origin.elapsed().as_nanos() as u64;
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            point,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        let end = self.origin.elapsed().as_nanos() as u64;
        self.lock()[id].end = end;
    }

    /// Opens the root span of a batch; points recorded until the next
    /// call hang below it.
    pub fn begin_batch(&self) -> usize {
        let id = self.open("run_batch", None, None);
        // Published before `run_batch` spawns the threads that read it.
        self.batch.store(id, Ordering::SeqCst);
        id
    }

    /// The current batch span.
    pub fn batch(&self) -> usize {
        self.batch.load(Ordering::SeqCst)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// A copy of the spans from index `from` on.
    pub fn spans_from(&self, from: usize) -> Vec<Span> {
        self.lock()[from..].to_vec()
    }

    /// The spans as a Chrome trace-event document (opens in Perfetto).
    /// A point's spans share a track; batch-level spans sit on track 0.
    pub fn chrome_json(&self) -> String {
        let spans = self.lock();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, s) in spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let point = s
                .point
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \"point\": {point}}}}}",
                json::string(s.name),
                s.point.map_or(0, |p| p + 1),
                json::number(s.start as f64 / 1e3),
                json::number(s.dur() as f64 / 1e3),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < spans.len() {
                children[p].push((s.start, s.end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// What the traced runner read from one point's `RunResult`.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The point's id in the span file.
    pub point: usize,
    /// Router kind.
    pub router: RouterKind,
    /// Threads the point ran on.
    pub width: usize,
    /// Engine phase attribution.
    pub phases: PhaseNanos,
    /// Router event counters.
    pub router_stats: RouterStats,
    /// Engine work counters.
    pub work: EngineWork,
    /// Flits dropped by the fault layer.
    pub dropped_flits: u64,
    /// Ejected over injected flits.
    pub delivered_ratio: f64,
    /// Pairs left unroutable.
    pub unreachable_pairs: u64,
    /// Telemetry snapshots taken.
    pub snapshots: u64,
    /// Flows with a tagged delivery.
    pub flows: u64,
}

/// A benchmark-side runner that builds each point's configuration as
/// `NetworkRunner` does. Traced, it adds phase timing, records spans
/// around `Network::try_new` and `Network::run`, and keeps what the
/// engine counted; with `telemetry` off it measures telemetry's cost.
pub struct DirectRunner<'a> {
    telemetry: bool,
    tracer: Option<&'a Tracer>,
    traced: Mutex<Vec<Traced>>,
}

impl<'a> DirectRunner<'a> {
    /// A traced runner recording into `tracer`.
    pub fn traced(tracer: &'a Tracer) -> Self {
        DirectRunner {
            telemetry: true,
            tracer: Some(tracer),
            traced: Mutex::new(Vec::new()),
        }
    }

    /// An untraced runner with telemetry switched off.
    pub fn without_telemetry() -> Self {
        DirectRunner {
            telemetry: false,
            tracer: None,
            traced: Mutex::new(Vec::new()),
        }
    }

    /// Takes what the traced points recorded so far.
    pub fn take(&self) -> Vec<Traced> {
        std::mem::take(&mut *self.traced.lock().expect("a traced point panicked"))
    }
}

impl PointRunner<NetworkConfig> for DirectRunner<'_> {
    fn run_point(
        &self,
        config: &NetworkConfig,
        seed: u64,
        load: f64,
        cancel: &CancelToken,
    ) -> Option<PointRecord> {
        let mut cfg = config
            .clone()
            .with_injection(load)
            .with_seed(seed)
            .with_cancel(cancel.clone());
        if self.telemetry {
            cfg = cfg.with_telemetry(RUNNER_TELEMETRY_EPOCH);
        }
        let Some(tracer) = self.tracer else {
            return record(Network::try_new(cfg).ok()?.run(), seed, load);
        };
        let router = cfg.router;
        let width = cfg.engine.threads_per_run().min(cfg.mesh.nodes());
        let point = tracer.next_point.fetch_add(1, Ordering::Relaxed);
        let span = tracer.open("run_point", Some(tracer.batch()), Some(point));
        let s = tracer.open("Network::try_new", Some(span), Some(point));
        let net = Network::try_new(cfg.with_phase_timing(true));
        tracer.close(s);
        let s = tracer.open("Network::run", Some(span), Some(point));
        let r = net.ok().map(Network::run);
        tracer.close(s);
        let Some(r) = r else {
            tracer.close(span);
            return None;
        };
        let traced = Traced {
            point,
            router,
            width,
            phases: r.phases.unwrap_or_default(),
            router_stats: r.router_stats,
            work: r.work,
            dropped_flits: r.dropped_flits,
            delivered_ratio: r.delivered_ratio,
            unreachable_pairs: r.unreachable_pairs,
            snapshots: r.metrics.as_ref().map_or(0, |m| m.len() as u64),
            flows: r.flow_stats.as_ref().map_or(0, |f| f.flows()),
        };
        self.traced
            .lock()
            .expect("a traced point panicked")
            .push(traced);
        // Building the record and dropping the result belong to the point.
        let rec = record(r, seed, load);
        tracer.close(span);
        rec
    }
}

/// The record `NetworkRunner` emits for a finished run.
fn record(r: noc_network::RunResult, seed: u64, load: f64) -> Option<PointRecord> {
    if r.cancelled {
        return None;
    }
    let pct = r.histogram.percentiles();
    let worst = r.flow_stats.as_ref().and_then(|f| f.worst());
    let node_drops = r
        .node_drops
        .iter()
        .enumerate()
        .filter(|(_, d)| d.total_flits() > 0 || d.total_packets() > 0)
        .map(|(node, d)| NodeDrops {
            node: node as u32,
            flits: d.flits.to_vec(),
            packets: d.packets.to_vec(),
        })
        .collect();
    let (cycles, unreachable_pairs) = (r.cycles, r.unreachable_pairs);
    let flows = r.flow_stats.as_ref().map_or(0, |f| f.flows());
    let point = LoadPoint::from(r);
    Some(PointRecord {
        // `run_batch` owns point identity and overwrites the key.
        key: PointKey::new(0, seed, load),
        job: String::new(),
        seed,
        load,
        latency: point.latency,
        accepted: point.accepted,
        saturated: point.saturated,
        cycles,
        p50: pct.p50,
        p95: pct.p95,
        p99: pct.p99,
        unreachable_pairs,
        node_drops,
        flows,
        flow_p50: worst.map(|(_, _, p)| p.p50),
        flow_p95: worst.map(|(_, _, p)| p.p95),
        flow_p99: worst.map(|(_, _, p)| p.p99),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics of one traced batch: its spans (ids from `base`),
/// the points' counters, and the batch's wall time in seconds.
pub fn layer_metrics(
    spans: &[Span],
    base: usize,
    points: &[Traced],
    wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let selves = self_times(spans, base);
    let total = |name: &str| -> (f64, f64, f64) {
        let (mut n, mut dur, mut own) = (0.0, 0.0, 0.0);
        for (s, own_ns) in spans.iter().zip(&selves) {
            if s.name == name {
                n += 1.0;
                dur += s.dur() as f64;
                own += *own_ns as f64;
            }
        }
        (n, dur, own)
    };
    let (npoints, _, _) = total("run_point");
    let (_, batch_ns, batch_self) = total("run_batch");
    let (nrec, rec_ns, _) = total("ResultSink::record");
    let (nbuild, build_ns, _) = total("Network::try_new");
    let (nrun, run_ns, _) = total("Network::run");
    let width = |point: Option<usize>| {
        points
            .iter()
            .find(|p| Some(p.point) == point)
            .map_or(1.0, |p| p.width as f64)
    };
    let busy: f64 = spans
        .iter()
        .filter(|s| s.name == "run_point")
        .map(|s| s.dur() as f64 * width(s.point))
        .sum();
    m.insert("runqueue.points", npoints);
    m.insert(
        "runqueue.idle_frac",
        1.0 - ratio(busy, batch_ns * CORES as f64),
    );
    m.insert("runqueue.sink_us_per_record", ratio(rec_ns, nrec) / 1e3);
    m.insert(
        "runqueue.self_ms_per_point",
        ratio(batch_self, npoints) / 1e6,
    );
    m.insert("runqueue.points_per_s", ratio(npoints, wall_s));
    m.insert("runqueue.wall_s", wall_s);
    m.insert("network.setup_ms_per_point", ratio(build_ns, nbuild) / 1e6);
    m.insert("sim.run_ms_per_point", ratio(run_ns, nrun) / 1e6);

    // Folded from +0.0: an empty `f64` sum is -0.0.
    let sum = |f: &dyn Fn(&Traced) -> f64| points.iter().map(f).fold(0.0, |a, v| a + v);
    let executed = |p: &Traced| p.work.cycles.saturating_sub(p.phases.fast_forwarded) as f64;
    let cycles = sum(&|p| executed(p));
    m.insert("sim.cycles", sum(&|p| p.work.cycles as f64));
    m.insert(
        "sim.active_frac",
        ratio(
            sum(&|p| p.work.router_ticks as f64),
            sum(&|p| p.work.router_ticks_possible as f64),
        ),
    );
    m.insert(
        "sim.fast_forwarded",
        sum(&|p| p.phases.fast_forwarded as f64),
    );
    m.insert(
        "sim.delivery_ns_per_cycle",
        ratio(sum(&|p| p.phases.delivery as f64), cycles),
    );
    m.insert(
        "sim.sources_ns_per_cycle",
        ratio(sum(&|p| p.phases.sources as f64), cycles),
    );
    m.insert(
        "sim.stats_ns_per_cycle",
        ratio(sum(&|p| p.phases.stats as f64), cycles),
    );

    // Phase times come from the coordinating thread; a sharded point's
    // router time is that shard's, so it is scaled by the shard count
    // before dividing by the ticks of every shard.
    let router_ns = |p: &Traced| p.phases.router as f64 * p.width as f64;
    let ticks = sum(&|p| p.work.router_ticks as f64);
    let hops = sum(&|p| p.router_stats.flits_switched as f64);
    m.insert("router.ticks", ticks);
    m.insert("router.flit_hops", hops);
    m.insert("router.hops_per_tick", ratio(hops, ticks));
    m.insert("router.tick_ns", ratio(sum(&router_ns), ticks));
    let (mut kind_ns, mut kind_ticks) = ([0.0; 3], [0.0; 3]);
    for p in points {
        let k = match p.router {
            // The routers without a VA stage.
            RouterKind::Wormhole { .. } | RouterKind::VirtualCutThrough { .. } => 0,
            RouterKind::VirtualChannel { .. } => 1,
            RouterKind::SpeculativeVc { .. } => 2,
        };
        kind_ns[k] += router_ns(p);
        kind_ticks[k] += p.work.router_ticks as f64;
    }
    for (k, name) in [
        "router.tick_ns.wh",
        "router.tick_ns.vc",
        "router.tick_ns.specvc",
    ]
    .into_iter()
    .enumerate()
    {
        m.insert(name, ratio(kind_ns[k], kind_ticks[k]));
    }
    m.insert(
        "router.share",
        ratio(
            sum(&|p| p.phases.router as f64),
            sum(&|p| p.phases.total() as f64),
        ),
    );
    let rs = |f: fn(&RouterStats) -> u64| sum(&|p| f(&p.router_stats) as f64);
    m.insert("router.va_grants", rs(|s| s.va_grants));
    m.insert("router.sa_grants", rs(|s| s.sa_grants));
    m.insert("router.spec_requests", rs(|s| s.spec_requests));
    m.insert("router.spec_hits", rs(|s| s.spec_hits));
    m.insert("router.spec_wasted", rs(|s| s.spec_wasted));
    m.insert(
        "router.spec_accuracy",
        ratio(rs(|s| s.spec_hits), rs(|s| s.spec_hits + s.spec_wasted)),
    );
    m.insert("router.credits_sent", rs(|s| s.credits_sent));

    let sharded: Vec<&Traced> = points.iter().filter(|p| p.width > 1).collect();
    let ssum = |f: &dyn Fn(&Traced) -> f64| sharded.iter().map(|p| f(p)).fold(0.0, |a, v| a + v);
    let scycles = ssum(&|p| executed(p));
    m.insert(
        "shard.barrier_share",
        ratio(
            ssum(&|p| p.phases.barrier as f64),
            ssum(&|p| p.phases.total() as f64),
        ),
    );
    m.insert(
        "shard.barrier_ns_per_cycle",
        ratio(ssum(&|p| p.phases.barrier as f64), scycles),
    );
    m.insert(
        "shard.waits_per_cycle",
        ratio(ssum(&|p| p.phases.barrier_waits as f64), scycles),
    );
    m.insert(
        "shard.commit_ns_per_cycle",
        ratio(ssum(&|p| p.phases.stats as f64), scycles),
    );
    let metered: Vec<f64> = sharded
        .iter()
        .filter(|p| p.phases.imbalance_epochs > 0)
        .map(|p| p.phases.work_imbalance())
        .collect();
    m.insert(
        "shard.work_imbalance",
        ratio(metered.iter().fold(0.0, |a, v| a + v), metered.len() as f64),
    );
    m.insert("shard.rebalances", ssum(&|p| p.phases.rebalances as f64));
    m.insert(
        "shard.migrated_nodes",
        ssum(&|p| p.phases.migrated_nodes as f64),
    );

    m.insert("fault.dropped_flits", sum(&|p| p.dropped_flits as f64));
    m.insert(
        "fault.delivered_ratio",
        ratio(sum(&|p| p.delivered_ratio), points.len() as f64),
    );
    m.insert(
        "fault.unreachable_pairs",
        sum(&|p| p.unreachable_pairs as f64),
    );
    m.insert("telemetry.snapshots", sum(&|p| p.snapshots as f64));
    m.insert("telemetry.flows", sum(&|p| p.flows as f64));
    m
}

/// Median nanoseconds per call of each arbiter the router pipeline uses,
/// on request patterns drawn from a fixed seed: the VA allocator's
/// separable 10x10 allocation (5 ports x 2 VCs), SA stage 2's matrix
/// arbiter over 5 ports (`peek` + `demote`), and a round-robin arbiter
/// over 2 VCs.
pub fn arbitration_probe() -> [(&'static str, f64); 3] {
    const PATTERNS: usize = 1024;
    const CALLS: usize = 20_000;
    const SAMPLES: usize = 15;
    let mut rng = 0x0A2B_17E5_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let va: Vec<Vec<(usize, usize)>> = (0..PATTERNS)
        .map(|_| {
            (0..10)
                .filter_map(|i| {
                    let r = next();
                    // Half of the input VCs request; each names 1-2 VCs
                    // of one output port.
                    ((r & 1) == 1).then(|| {
                        let port = (r >> 8) as usize % 5;
                        let mut reqs = vec![(i, port * 2 + (r >> 16) as usize % 2)];
                        if (r & 2) == 2 {
                            reqs.push((i, port * 2 + 1 - (r >> 16) as usize % 2));
                        }
                        reqs
                    })
                })
                .flatten()
                .collect()
        })
        .collect();
    let bools = |n: usize, r: u64| -> Vec<bool> { (0..n).map(|i| (r >> i) & 1 == 1).collect() };
    let sa: Vec<Vec<bool>> = (0..PATTERNS).map(|_| bools(5, next())).collect();
    let rr: Vec<Vec<bool>> = (0..PATTERNS).map(|_| bools(2, next())).collect();

    let mut alloc = SeparableAllocator::new(10, 10);
    let mut grants: Vec<Grant> = Vec::with_capacity(10);
    let mut matrix = MatrixArbiter::new(5);
    let mut round_robin = RoundRobinArbiter::new(2);
    let time = |f: &mut dyn FnMut(usize)| {
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for i in 0..CALLS {
                    f(black_box(i % PATTERNS));
                }
                start.elapsed().as_nanos() as f64 / CALLS as f64
            })
            .collect();
        crate::stats::median(&samples)
    };
    let separable = time(&mut |i| {
        alloc.allocate_into(&va[i], &mut grants);
        black_box(&grants);
    });
    let matrix_ns = time(&mut |i| {
        if let Some(w) = matrix.peek(&sa[i]) {
            matrix.demote(black_box(w));
        }
    });
    let round_robin_ns = time(&mut |i| {
        black_box(round_robin.arbitrate(&rr[i]));
    });
    [
        ("arbitration.separable_ns", separable),
        ("arbitration.matrix_ns", matrix_ns),
        ("arbitration.round_robin_ns", round_robin_ns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            point: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Batch 0..100 with two overlapping points 10..60 and 40..90: the
        // children cover 10..90, so the batch's own time is 20.
        let spans = vec![
            span("run_batch", 0, 100, None),
            span("run_point", 10, 60, Some(5)),
            span("run_point", 40, 90, Some(5)),
            span("Network::run", 20, 30, Some(6)),
        ];
        // Ids start at 5 in this slice.
        assert_eq!(self_times(&spans, 5), vec![20, 40, 50, 10]);
    }

    #[test]
    fn layer_metrics_and_the_run_cover_the_per_layer_table() {
        let m = layer_metrics(&[], 0, &[], 1.0);
        // Measured by the traced pass outside any one batch.
        let elsewhere = [
            "network.rss_kb_per_node",
            "arbitration.separable_ns",
            "arbitration.matrix_ns",
            "arbitration.round_robin_ns",
            "telemetry.overhead_frac",
            "trace.overhead_frac",
        ];
        for (name, _, _) in crate::metrics::PER_LAYER {
            assert_ne!(m.contains_key(name), elsewhere.contains(&name), "{name}");
        }
        assert_eq!(m.len() + elsewhere.len(), crate::metrics::PER_LAYER.len());
        assert!(m.values().all(|v| v.is_finite() && v.is_sign_positive()));
    }

    #[test]
    fn arbitration_probe_reports_positive_times() {
        for (name, ns) in arbitration_probe() {
            assert!(ns > 0.0 && ns.is_finite(), "{name}: {ns}");
        }
    }
}
