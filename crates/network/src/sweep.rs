//! Load sweeps: latency–throughput curves and saturation points.

use crate::config::NetworkConfig;
use crate::sim::{Network, RunResult};
use runqueue::{run_tasks, CancelToken, Task};
use std::fmt;

/// One point of a latency–throughput curve.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered load, fraction of capacity.
    pub offered: f64,
    /// Mean tagged-packet latency in cycles, if the sample completed.
    pub latency: Option<f64>,
    /// Accepted throughput, fraction of capacity.
    pub accepted: f64,
    /// Whether the network saturated at this load.
    pub saturated: bool,
}

impl From<RunResult> for LoadPoint {
    fn from(r: RunResult) -> Self {
        // A network past saturation may still drain its tagged sample
        // eventually (with enormous latency); what defines saturation is
        // that accepted throughput falls short of offered load.
        let undelivered = r.saturated;
        let throughput_collapsed = r.accepted < r.offered * 0.9 - 0.01;
        LoadPoint {
            offered: r.offered,
            latency: r.avg_latency,
            accepted: r.accepted,
            saturated: undelivered || throughput_collapsed,
        }
    }
}

impl fmt::Display for LoadPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.latency, self.saturated) {
            (Some(l), false) => write!(
                f,
                "{:5.2} -> {:7.1} cycles (accepted {:.2})",
                self.offered, l, self.accepted
            ),
            (Some(l), true) => write!(
                f,
                "{:5.2} -> {:7.1} cycles (SATURATED, accepted {:.2})",
                self.offered, l, self.accepted
            ),
            (None, _) => write!(f, "{:5.2} -> saturated", self.offered),
        }
    }
}

/// Sweep options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// The offered loads to evaluate, fractions of capacity.
    pub loads: Vec<f64>,
    /// Stop sweeping after the first saturated point (the rest of the
    /// curve is vertical anyway).
    pub stop_at_saturation: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            loads: (1..=10).map(|i| f64::from(i) / 10.0).collect(),
            stop_at_saturation: true,
        }
    }
}

/// Runs `base` at every load in `opts.loads`, returning the curve.
#[must_use]
pub fn sweep(base: &NetworkConfig, opts: &SweepOptions) -> Vec<LoadPoint> {
    let mut curve = Vec::new();
    for &load in &opts.loads {
        let point: LoadPoint = Network::new(base.clone().with_injection(load)).run().into();
        let stop = opts.stop_at_saturation && point.saturated;
        curve.push(point);
        if stop {
            break;
        }
    }
    curve
}

/// Like [`sweep`], but evaluates load points concurrently through the
/// [`runqueue`] priority queue under a core budget of
/// [`std::thread::available_parallelism`] (spawning one thread per load
/// point oversubscribes the machine on large sweeps). Each point is a
/// queue task whose *width* is the threads one run occupies — 1 for the
/// serial engines, the shard count for
/// [`crate::config::EngineKind::ParallelShards`] —
/// and the queue keeps the total width of concurrently running points
/// within the budget, the `workers × shards ≤ cores` arithmetic this
/// module used to approximate per-sweep (see [`runqueue::worker_budget`]
/// for the uniform-width closed form).
///
/// Points are prioritized in *descending-load order*: the
/// near-saturation points simulate the most cycles by far, so starting
/// them first keeps the pool's makespan close to the single most
/// expensive point instead of letting an expensive tail serialize behind
/// one worker. Results are identical to the sequential sweep, in the
/// original load order (each point has its own deterministic RNG); with
/// `stop_at_saturation` the curve is truncated after the first saturated
/// point post hoc, so some work beyond it is wasted in exchange for
/// wall-clock speed.
#[must_use]
pub fn sweep_parallel(base: &NetworkConfig, opts: &SweepOptions) -> Vec<LoadPoint> {
    let n = opts.loads.len();
    if n == 0 {
        return Vec::new();
    }
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Clamp by the node count: the engine clamps shards to the mesh, so
    // a `ParallelShards { shards: 1000 }` run on a 16-node mesh really
    // occupies 16 threads, and the budget must not over-reserve for it.
    let threads_per_run = base.engine.threads_per_run().min(base.mesh.nodes());
    let tasks: Vec<Task<usize>> = (0..n)
        .map(|i| Task {
            item: i,
            width: threads_per_run,
            // Expensive (high-load) points first; the queue breaks ties
            // in submission (= load-axis) order.
            priority: [opts.loads[i], 0.0],
        })
        .collect();
    let slots = run_tasks(
        tasks,
        available,
        &CancelToken::new(),
        |i, _| LoadPoint::from(Network::new(base.clone().with_injection(opts.loads[i])).run()),
        |_, _| {},
    );
    let points: Vec<LoadPoint> = slots
        .into_iter()
        .map(|p| p.expect("every load point computed"))
        .collect();
    if opts.stop_at_saturation {
        let mut out = Vec::new();
        for p in points {
            let stop = p.saturated;
            out.push(p);
            if stop {
                break;
            }
        }
        out
    } else {
        points
    }
}

/// The saturation throughput of a curve: the highest offered load whose
/// point completed with latency below `threshold × zero-load latency`
/// (the latency of the lowest-load point). Returns 0.0 for an empty or
/// immediately-saturated curve.
#[must_use]
pub fn saturation_throughput(curve: &[LoadPoint], threshold: f64) -> f64 {
    let Some(zero_load) = curve
        .iter()
        .find_map(|p| p.latency.filter(|_| !p.saturated))
    else {
        return 0.0;
    };
    curve
        .iter()
        .filter(|p| !p.saturated && p.latency.is_some_and(|l| l <= zero_load * threshold))
        .map(|p| p.offered)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineKind, RouterKind};

    fn base() -> NetworkConfig {
        NetworkConfig::mesh(
            4,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_warmup(100)
        .with_sample(150)
        .with_max_cycles(8_000)
    }

    #[test]
    fn latency_rises_with_load() {
        let curve = sweep(
            &base(),
            &SweepOptions {
                loads: vec![0.1, 0.5],
                stop_at_saturation: true,
            },
        );
        assert!(curve.len() >= 2);
        let low = curve[0].latency.expect("low load completes");
        let high = curve[1].latency.expect("moderate load completes");
        assert!(
            high >= low,
            "latency must not drop with load: {low} -> {high}"
        );
    }

    #[test]
    fn sweep_stops_at_saturation() {
        let curve = sweep(
            &base(),
            &SweepOptions {
                loads: vec![0.2, 3.0, 4.0],
                stop_at_saturation: true,
            },
        );
        assert!(curve.len() <= 2, "must stop after the saturated point");
        assert!(curve.last().unwrap().saturated);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let opts = SweepOptions {
            loads: vec![0.1, 0.3, 0.5],
            stop_at_saturation: false,
        };
        let seq = sweep(&base(), &opts);
        let par = sweep_parallel(&base(), &opts);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.offered, b.offered);
            assert_eq!(a.latency, b.latency, "deterministic per-point RNG");
            assert_eq!(a.saturated, b.saturated);
        }
    }

    #[test]
    fn parallel_sweep_handles_more_points_than_workers() {
        // More load points than any realistic core count, so workers must
        // each pull several items off the shared queue — and the result
        // order must still match the sequential sweep exactly.
        let loads: Vec<f64> = (1..=24).map(|i| 0.01 * f64::from(i)).collect();
        let opts = SweepOptions {
            loads,
            stop_at_saturation: false,
        };
        let small = NetworkConfig::mesh(
            4,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_warmup(20)
        .with_sample(30)
        .with_max_cycles(2_000);
        let seq = sweep(&small, &opts);
        let par = sweep_parallel(&small, &opts);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.offered, b.offered);
            assert_eq!(a.latency, b.latency);
        }
    }

    #[test]
    fn full_sweep_output_is_deterministic_run_to_run() {
        // Two independent parallel sweeps over the same configuration
        // must agree bit for bit on every field of every point — no
        // hash-order, thread-schedule, or allocator nondeterminism may
        // leak into results. Includes a high (0.5) and a saturating load
        // so the expensive points run through the work-stealing path.
        let opts = SweepOptions {
            loads: vec![0.1, 0.5, 0.3, 2.0, 0.2],
            stop_at_saturation: false,
        };
        let a = sweep_parallel(&base(), &opts);
        let b = sweep_parallel(&base(), &opts);
        let seq = sweep(&base(), &opts);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), seq.len());
        for ((x, y), z) in a.iter().zip(&b).zip(&seq) {
            assert_eq!(x.offered.to_bits(), y.offered.to_bits());
            assert_eq!(
                x.latency.map(f64::to_bits),
                y.latency.map(f64::to_bits),
                "run-to-run latency drift at load {}",
                x.offered
            );
            assert_eq!(x.accepted.to_bits(), y.accepted.to_bits());
            assert_eq!(x.saturated, y.saturated);
            // And the parallel schedule matches the sequential sweep.
            assert_eq!(x.latency.map(f64::to_bits), z.latency.map(f64::to_bits));
            assert_eq!(x.accepted.to_bits(), z.accepted.to_bits());
            assert_eq!(x.saturated, z.saturated);
        }
    }

    #[test]
    fn parallel_sweep_with_sharded_engine_matches_sequential() {
        // The oversubscription fix must not change results: a sweep whose
        // points each run the sharded engine still matches the serial
        // sweep bit for bit.
        // 99 shards clamps to the 16-node mesh inside the engine, and
        // the worker budget clamps the same way instead of reserving 99
        // threads' worth of the machine per point.
        let opts = SweepOptions {
            loads: vec![0.1, 0.3],
            stop_at_saturation: false,
        };
        let sharded = base().with_engine(EngineKind::ParallelShards { shards: 99 });
        let seq = sweep(&sharded, &opts);
        let par = sweep_parallel(&sharded, &opts);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.latency.map(f64::to_bits), b.latency.map(f64::to_bits));
            assert_eq!(a.accepted.to_bits(), b.accepted.to_bits());
        }
    }

    #[test]
    fn parallel_sweep_of_empty_loads_is_empty() {
        let opts = SweepOptions {
            loads: Vec::new(),
            stop_at_saturation: true,
        };
        assert!(sweep_parallel(&base(), &opts).is_empty());
    }

    #[test]
    fn parallel_sweep_truncates_at_saturation() {
        let opts = SweepOptions {
            loads: vec![0.2, 3.0, 4.0],
            stop_at_saturation: true,
        };
        let curve = sweep_parallel(&base(), &opts);
        assert!(curve.len() <= 2);
        assert!(curve.last().unwrap().saturated);
    }

    #[test]
    fn saturation_throughput_of_synthetic_curve() {
        let curve = vec![
            LoadPoint {
                offered: 0.1,
                latency: Some(30.0),
                accepted: 0.1,
                saturated: false,
            },
            LoadPoint {
                offered: 0.3,
                latency: Some(35.0),
                accepted: 0.3,
                saturated: false,
            },
            LoadPoint {
                offered: 0.5,
                latency: Some(60.0),
                accepted: 0.5,
                saturated: false,
            },
            LoadPoint {
                offered: 0.6,
                latency: Some(200.0),
                accepted: 0.55,
                saturated: false,
            },
            LoadPoint {
                offered: 0.7,
                latency: None,
                accepted: 0.55,
                saturated: true,
            },
        ];
        assert_eq!(saturation_throughput(&curve, 3.0), 0.5);
        assert_eq!(saturation_throughput(&curve, 10.0), 0.6);
    }

    #[test]
    fn empty_curve_has_zero_saturation() {
        assert_eq!(saturation_throughput(&[], 3.0), 0.0);
    }

    #[test]
    fn display_formats_both_states() {
        let p = LoadPoint {
            offered: 0.4,
            latency: Some(42.0),
            accepted: 0.4,
            saturated: false,
        };
        assert!(p.to_string().contains("42.0"));
        let s = LoadPoint {
            offered: 0.9,
            latency: None,
            accepted: 0.5,
            saturated: true,
        };
        assert!(s.to_string().contains("saturated"));
    }
}
