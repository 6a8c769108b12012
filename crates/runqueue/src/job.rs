//! Jobs: config × seed range × load grid, expanded into keyed points.

use crate::cancel::CancelToken;
use crate::queue::{run_tasks, Task};
use crate::sink::ResultSink;
use std::collections::HashSet;

/// A configuration the queue can schedule: cloneable across worker
/// threads and hashable to a stable identity.
pub trait JobConfig: Clone + Send + Sync {
    /// A stable hash of everything that determines the *results* of a
    /// run except the seed and the offered load (those are the other two
    /// components of a [`PointKey`]). Two configs with equal hashes are
    /// treated as the same experiment for dedup-resume purposes, so the
    /// hash must not cover result-neutral knobs (e.g. which engine
    /// computes the identical answer).
    fn config_hash(&self) -> u64;
}

/// One job: a configuration swept over a load grid and a seed range.
#[derive(Debug, Clone)]
pub struct JobSpec<C> {
    /// Human-readable name, carried into every result record.
    pub name: String,
    /// The base configuration (load and seed are applied per point).
    pub config: C,
    /// Base RNG seed; per-repetition seeds derive from it (see
    /// [`derive_seed`]).
    pub base_seed: u64,
    /// Repetitions: points run with seeds `derive_seed(base, hash, 0..reps)`.
    pub reps: u64,
    /// Offered-load grid.
    pub loads: Vec<f64>,
    /// Cores one point of this job occupies while running (the shard
    /// count for a sharded-parallel run; 1 for the serial engines).
    pub width: usize,
    /// Job priority: higher-priority jobs' points are scheduled first.
    /// Within a job, higher loads run first (they simulate the most
    /// cycles by far, so starting them early keeps the batch makespan
    /// close to the single most expensive point).
    pub priority: f64,
}

impl<C: JobConfig> JobSpec<C> {
    /// A single-rep, unit-width, default-priority job with no loads yet.
    pub fn new(name: impl Into<String>, config: C, base_seed: u64) -> Self {
        JobSpec {
            name: name.into(),
            config,
            base_seed,
            reps: 1,
            loads: Vec::new(),
            width: 1,
            priority: 0.0,
        }
    }

    /// Sets the load grid.
    #[must_use]
    pub fn with_loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = loads;
        self
    }

    /// Sets the repetition (seed) count.
    #[must_use]
    pub fn with_reps(mut self, reps: u64) -> Self {
        self.reps = reps;
        self
    }

    /// Sets the per-point core width.
    #[must_use]
    pub fn with_width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// Sets the job priority.
    #[must_use]
    pub fn with_priority(mut self, priority: f64) -> Self {
        self.priority = priority;
        self
    }

    /// The seed of repetition `rep` of this job.
    #[must_use]
    pub fn seed_for(&self, rep: u64) -> u64 {
        derive_seed(self.base_seed, self.config.config_hash(), rep)
    }

    /// Points of this job, in (rep-major, load-minor) order.
    #[must_use]
    pub fn points(&self) -> Vec<(u64, f64)> {
        let mut pts = Vec::with_capacity(self.reps as usize * self.loads.len());
        for rep in 0..self.reps {
            let seed = self.seed_for(rep);
            for &load in &self.loads {
                pts.push((seed, load));
            }
        }
        pts
    }
}

/// Deterministic per-job seed derivation. Repetition 0 uses the base
/// seed unchanged, so a one-rep job reproduces a direct
/// `Network::run` (and a sequential `sweep`) of the same configuration
/// bit for bit; further repetitions mix the base seed, the config hash,
/// and the repetition index through a splitmix64 finalizer, so two jobs
/// sharing a base seed but differing in config still draw independent
/// seed streams.
#[must_use]
pub fn derive_seed(base_seed: u64, config_hash: u64, rep: u64) -> u64 {
    if rep == 0 {
        return base_seed;
    }
    splitmix64(base_seed ^ config_hash.rotate_left(31) ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The splitmix64 finalizer (public-domain constants; bijective on u64).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The dedup identity of one point: config hash × seed × exact load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointKey {
    /// [`JobConfig::config_hash`] of the point's configuration.
    pub config: u64,
    /// The point's RNG seed.
    pub seed: u64,
    /// The offered load's exact bit pattern (`f64::to_bits`), so dedup
    /// never falls to formatting round-trips.
    pub load_bits: u64,
}

impl PointKey {
    /// Builds a key from an exact load value.
    #[must_use]
    pub fn new(config: u64, seed: u64, load: f64) -> Self {
        PointKey {
            config,
            seed,
            load_bits: load.to_bits(),
        }
    }

    /// The offered load this key encodes.
    #[must_use]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.load_bits)
    }
}

/// Per-node drop counters carried by a [`PointRecord`], reason-indexed.
///
/// The reason axis is workload-defined (the network runner indexes it in
/// its `DropReason` declaration order); `runqueue` only round-trips the
/// arrays verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeDrops {
    /// Node id the counts belong to.
    pub node: u32,
    /// Flits dropped at this node, by reason index.
    pub flits: Vec<u64>,
    /// Head-flit (= whole packet) drops at this node, by reason index.
    pub packets: Vec<u64>,
}

/// One completed point, as emitted to a [`ResultSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Dedup identity.
    pub key: PointKey,
    /// Name of the job the point belongs to.
    pub job: String,
    /// RNG seed the point ran with.
    pub seed: u64,
    /// Offered load, fraction of capacity.
    pub load: f64,
    /// Mean tagged-packet latency in cycles, if the sample completed.
    pub latency: Option<f64>,
    /// Accepted throughput, fraction of capacity.
    pub accepted: f64,
    /// Whether the network saturated at this load.
    pub saturated: bool,
    /// Cycles simulated.
    pub cycles: u64,
    /// Median latency (exact nearest-rank), if measured.
    pub p50: Option<u64>,
    /// 95th-percentile latency (exact nearest-rank), if measured.
    pub p95: Option<u64>,
    /// 99th-percentile latency (exact nearest-rank), if measured.
    pub p99: Option<u64>,
    /// Source→destination pairs the fault plan left unroutable at the
    /// end of the run (0 for a healthy network).
    pub unreachable_pairs: u64,
    /// Per-node drop counters — one entry per node that dropped
    /// anything, in ascending node order (empty for a clean run).
    pub node_drops: Vec<NodeDrops>,
    /// Distinct source→destination flows that delivered at least one
    /// tagged packet.
    pub flows: u64,
    /// Worst flow's median latency (exact nearest-rank), if measured.
    pub flow_p50: Option<u64>,
    /// Worst flow's 95th-percentile latency, if measured.
    pub flow_p95: Option<u64>,
    /// Worst flow's 99th-percentile latency, if measured. "Worst" ranks
    /// flows by (p99, p95, p50), ties to the lowest (src, dst).
    pub flow_p99: Option<u64>,
}

/// Runs one point of a job. Returning `None` means the run was cancelled
/// before completing — nothing is recorded, so a resumed batch will run
/// the point again from scratch.
pub trait PointRunner<C>: Sync {
    /// Runs `config` at `seed` × `load`, polling `cancel` cooperatively.
    fn run_point(
        &self,
        config: &C,
        seed: u64,
        load: f64,
        cancel: &CancelToken,
    ) -> Option<PointRecord>;
}

/// What [`run_batch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Points in the expanded batch (before dedup).
    pub total: usize,
    /// Points skipped because their key was already in `skip`.
    pub skipped: usize,
    /// Points that completed and were recorded this run.
    pub completed: usize,
    /// Whether the batch was cancelled before finishing.
    pub cancelled: bool,
}

/// Expands `jobs` into points, drops the ones whose [`PointKey`] is in
/// `skip` (dedup-resume), and schedules the rest on the queue under
/// `cores`. Each completed point is recorded into `sink` and reported to
/// `progress(done, remaining_total, record)` as it finishes.
pub fn run_batch<C, R, P>(
    jobs: &[JobSpec<C>],
    cores: usize,
    cancel: &CancelToken,
    runner: &R,
    skip: &HashSet<PointKey>,
    sink: &mut (dyn ResultSink + Send),
    mut progress: P,
) -> BatchOutcome
where
    C: JobConfig,
    R: PointRunner<C> + ?Sized,
    P: FnMut(usize, usize, &PointRecord) + Send,
{
    struct Point {
        job: usize,
        key: PointKey,
        seed: u64,
        load: f64,
    }
    let mut total = 0usize;
    let mut skipped = 0usize;
    let mut tasks: Vec<Task<Point>> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let hash = job.config.config_hash();
        for (seed, load) in job.points() {
            total += 1;
            let key = PointKey::new(hash, seed, load);
            if skip.contains(&key) {
                skipped += 1;
                continue;
            }
            tasks.push(Task {
                item: Point {
                    job: j,
                    key,
                    seed,
                    load,
                },
                width: job.width,
                priority: [job.priority, load],
            });
        }
    }
    let remaining = tasks.len();
    let mut completed = 0usize;
    let results = run_tasks(
        tasks,
        cores,
        cancel,
        |pt: Point, tok: &CancelToken| {
            let job = &jobs[pt.job];
            runner
                .run_point(&job.config, pt.seed, pt.load, tok)
                .map(|mut rec| {
                    // The batch owns point identity; runners own
                    // measurements.
                    rec.key = pt.key;
                    rec.job.clone_from(&job.name);
                    rec.seed = pt.seed;
                    rec.load = pt.load;
                    rec
                })
        },
        |_, rec: &Option<PointRecord>| {
            if let Some(rec) = rec {
                sink.record(rec);
                completed += 1;
                progress(completed, remaining, rec);
            }
        },
    );
    let unfinished = results.iter().any(|r| !matches!(r, Some(Some(_))));
    BatchOutcome {
        total,
        skipped,
        completed,
        cancelled: cancel.is_cancelled() || unfinished,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[derive(Clone)]
    struct Cfg(u64);
    impl JobConfig for Cfg {
        fn config_hash(&self) -> u64 {
            self.0
        }
    }

    /// A runner whose "latency" is a pure function of the key.
    struct FakeRunner;
    impl PointRunner<Cfg> for FakeRunner {
        fn run_point(
            &self,
            config: &Cfg,
            seed: u64,
            load: f64,
            _cancel: &CancelToken,
        ) -> Option<PointRecord> {
            Some(PointRecord {
                key: PointKey::new(0, 0, 0.0), // overwritten by run_batch
                job: String::new(),
                seed,
                load,
                latency: Some(config.0 as f64 + seed as f64 + load * 100.0),
                accepted: load,
                saturated: false,
                cycles: 1_000,
                p50: Some(10),
                p95: Some(20),
                p99: Some(30),
                unreachable_pairs: 0,
                node_drops: Vec::new(),
                flows: 4,
                flow_p50: Some(12),
                flow_p95: Some(24),
                flow_p99: Some(36),
            })
        }
    }

    fn two_jobs() -> Vec<JobSpec<Cfg>> {
        vec![
            JobSpec::new("a", Cfg(11), 1)
                .with_loads(vec![0.1, 0.2])
                .with_reps(2),
            JobSpec::new("b", Cfg(22), 1).with_loads(vec![0.5]),
        ]
    }

    #[test]
    fn seed_derivation_is_deterministic_and_rep0_is_base() {
        let job = JobSpec::new("x", Cfg(7), 42).with_reps(3);
        assert_eq!(job.seed_for(0), 42, "rep 0 reproduces the base seed");
        assert_eq!(job.seed_for(1), job.seed_for(1));
        assert_ne!(job.seed_for(1), job.seed_for(2));
        // Different configs, same base seed: independent streams.
        let other = JobSpec::new("y", Cfg(8), 42).with_reps(3);
        assert_eq!(other.seed_for(0), 42);
        assert_ne!(job.seed_for(1), other.seed_for(1));
    }

    #[test]
    fn points_expand_rep_major_load_minor() {
        let job = JobSpec::new("x", Cfg(7), 42)
            .with_reps(2)
            .with_loads(vec![0.1, 0.3]);
        let pts = job.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], (42, 0.1));
        assert_eq!(pts[1], (42, 0.3));
        assert_eq!(pts[2].1, 0.1);
        assert_eq!(pts[2].0, pts[3].0);
        assert_ne!(pts[0].0, pts[2].0);
    }

    #[test]
    fn batch_runs_every_point_once() {
        let mut sink = MemorySink::default();
        let out = run_batch(
            &two_jobs(),
            2,
            &CancelToken::new(),
            &FakeRunner,
            &HashSet::new(),
            &mut sink,
            |_, _, _| {},
        );
        assert_eq!(out.total, 5);
        assert_eq!(out.skipped, 0);
        assert_eq!(out.completed, 5);
        assert!(!out.cancelled);
        assert_eq!(sink.records.len(), 5);
        let keys: HashSet<PointKey> = sink.records.iter().map(|r| r.key).collect();
        assert_eq!(keys.len(), 5, "every key distinct");
        assert!(sink.records.iter().any(|r| r.job == "b"));
    }

    #[test]
    fn skip_set_dedups_completed_points() {
        let jobs = two_jobs();
        let mut first = MemorySink::default();
        run_batch(
            &jobs,
            2,
            &CancelToken::new(),
            &FakeRunner,
            &HashSet::new(),
            &mut first,
            |_, _, _| {},
        );
        // Pretend the first three points already landed in a sink.
        let skip: HashSet<PointKey> = first.records.iter().take(3).map(|r| r.key).collect();
        let mut second = MemorySink::default();
        let out = run_batch(
            &jobs,
            2,
            &CancelToken::new(),
            &FakeRunner,
            &skip,
            &mut second,
            |_, _, _| {},
        );
        assert_eq!(out.skipped, 3);
        assert_eq!(out.completed, 2);
        let rerun: HashSet<PointKey> = second.records.iter().map(|r| r.key).collect();
        assert!(rerun.is_disjoint(&skip), "skipped keys must not rerun");
    }

    #[test]
    fn records_are_identical_across_core_budgets() {
        let jobs = two_jobs();
        let run_with = |cores: usize| {
            let mut sink = MemorySink::default();
            run_batch(
                &jobs,
                cores,
                &CancelToken::new(),
                &FakeRunner,
                &HashSet::new(),
                &mut sink,
                |_, _, _| {},
            );
            let mut recs = sink.records;
            recs.sort_by_key(|r| r.key);
            recs
        };
        assert_eq!(run_with(1), run_with(7));
    }
}
