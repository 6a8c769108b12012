//! The benchmark's workloads: which experiments run, on which engine,
//! into which sink. Every point goes through the public batch path,
//! `runqueue::run_batch` with `noc_network::NetworkRunner`.

use noc_network::config::EngineKind;
use noc_network::{
    parse_faults, CancelToken, NetworkConfig, RouterKind, RoutingAlgo, TrafficPattern,
};
use peh_dally::figures::fig13_configs;
use peh_dally::SimScale;
use runqueue::JobSpec;

/// The core budget of every batch. Fixed, never read from the host, so
/// a run on a wider machine schedules exactly the same way.
pub const CORES: usize = 2;
/// Shard count of the sharded-parallel points.
pub const SHARDS: usize = 2;
/// The seed whose reference values are recorded in
/// `reference/seed-24301.tsv` (the simulator's default seed, so the
/// `fig13` points are exactly those `repro-fig13 quick` runs).
pub const DEFAULT_SEED: u64 = 0x5EED;
/// Telemetry epoch `NetworkRunner` applies to every batch point.
pub const RUNNER_TELEMETRY_EPOCH: u64 = 1024;

/// A named set of batch jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro-fig13 quick`: three 8x8 router kinds over the 0.1–0.9 grid.
    Fig13,
    /// 32x32 specVC at sparse loads on the 2-shard engine.
    Mesh32Sharded,
    /// 16x16 specVC hotspot traffic, adaptive routing and a fault plan,
    /// each point on the event engine and on 2 rebalancing shards.
    HotspotFaulted,
}

/// One job of a workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// The batch job; its `name` is carried into every record.
    pub spec: JobSpec<NetworkConfig>,
    /// The experiment the job runs: jobs that differ only in engine share
    /// a series, and therefore a reference.
    pub series: String,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` gates `fig13` and
    /// `hotspot-faulted`; `mesh32-sharded` runs on demand (see NOTES.md).
    pub const ALL: [Workload; 3] = [
        Workload::Fig13,
        Workload::Mesh32Sharded,
        Workload::HotspotFaulted,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig13 => "fig13",
            Workload::Mesh32Sharded => "mesh32-sharded",
            Workload::HotspotFaulted => "hotspot-faulted",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether records stream into a `JsonlSink` (else a `MemorySink`).
    pub fn jsonl(self) -> bool {
        self != Workload::Fig13
    }

    /// The workload's jobs, every point seeded with `seed`.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        match self {
            Workload::Fig13 => {
                let scale = SimScale::quick();
                fig13_configs()
                    .into_iter()
                    .enumerate()
                    .map(|(i, (label, cfg))| Job {
                        // As `repro_bench::queued::queued_figure` builds them.
                        spec: JobSpec::new(label.clone(), scale.apply(cfg), seed)
                            .with_loads(scale.loads())
                            .with_priority(-(i as f64)),
                        series: label,
                    })
                    .collect()
            }
            Workload::Mesh32Sharded => {
                // A short sample: a 2-shard point on a shared 2-core host
                // is noisy, so a run needs many batches for a steady
                // median, and the cycle-driven reference of a 32x32 point
                // is costly.
                let cfg = NetworkConfig::mesh(32, SPEC_VC)
                    .with_engine(EngineKind::parallel(SHARDS))
                    .with_warmup(1_000)
                    .with_sample(1_500)
                    .with_max_cycles(100_000);
                vec![Job {
                    spec: JobSpec::new("specVC 32x32 shards2", cfg, seed)
                        .with_loads(vec![0.02, 0.05, 0.1, 0.15, 0.2])
                        .with_width(SHARDS),
                    series: "specVC 32x32".into(),
                }]
            }
            Workload::HotspotFaulted => {
                let nodes = 16 * 16;
                let cfg = NetworkConfig::mesh(16, SPEC_VC)
                    .with_pattern(TrafficPattern::Hotspot {
                        hotspot: nodes - 5,
                        hotness: 0.1,
                    })
                    .with_routing(RoutingAlgo::NegativeFirstAdaptive)
                    .with_faults(parse_faults(FAULT_PLAN).expect("the fault plan parses"))
                    .with_warmup(1_000)
                    // A large sample, so a point's cost per flit-hop
                    // varies little from seed to seed.
                    .with_sample(12_000)
                    .with_max_cycles(200_000);
                let loads = vec![0.05, 0.1];
                let series = "specVC 16x16 hotspot faulted".to_string();
                vec![
                    Job {
                        spec: JobSpec::new(
                            "hotspot event",
                            cfg.clone().with_engine(EngineKind::EventDriven),
                            seed,
                        )
                        .with_loads(loads.clone()),
                        series: series.clone(),
                    },
                    Job {
                        spec: JobSpec::new(
                            "hotspot shards2",
                            cfg.with_engine(EngineKind::parallel(SHARDS))
                                .with_rebalance(200, 1.1),
                            seed,
                        )
                        .with_loads(loads)
                        .with_width(SHARDS),
                        series,
                    },
                ]
            }
        }
    }
}

const SPEC_VC: RouterKind = RouterKind::SpeculativeVc {
    vcs: 2,
    buffers_per_vc: 4,
};

/// A dead router mid-run, a flaky link and a lossy link.
pub const FAULT_PLAN: &str = "router:119:dead@2000,link:136:0:flaky@64/16,link:40:1:loss@0.01";

/// One point of a workload: a job and a load (every point of a job runs
/// at the job's seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Index into the workload's jobs.
    pub job: usize,
    /// Offered load.
    pub load: f64,
}

/// Every point of `jobs`, job-major in load order.
pub fn points(jobs: &[Job]) -> Vec<Point> {
    jobs.iter()
        .enumerate()
        .flat_map(|(job, j)| j.spec.loads.iter().map(move |&load| Point { job, load }))
        .collect()
}

/// The configuration `NetworkRunner` builds for one point.
pub fn point_config(job: &Job, load: f64) -> NetworkConfig {
    job.spec
        .config
        .clone()
        .with_injection(load)
        .with_seed(job.spec.base_seed)
        .with_telemetry(RUNNER_TELEMETRY_EPOCH)
        .with_cancel(CancelToken::new())
}
