//! Curves on the run queue: every simulated `repro-*` binary builds its
//! latency–throughput series here, as one [`runqueue`] batch.
//!
//! One figure = one [`run_tasks`] call: every (series, load) point is a
//! task, and all points share one core budget (a point of a sharded
//! configuration occupies its shard count, clamped to the mesh). Points
//! start in ascending load, the series in legend order at each load, so
//! every curve climbs towards its saturation together with the others.
//! A curve ends at its first saturated load: when a point comes back
//! saturated, each point of its series above it is cancelled through its
//! own [`CancelToken`] — one not yet started returns at once, and one
//! already running stops at its next poll (`NetworkConfig::with_cancel`).
//!
//! Every kept point is the same deterministic `Network::run` of its
//! configuration at its load, so a figure does not depend on the worker
//! count or on the schedule. `runq` and perfbench, which keep every
//! point of their grids, go through `runqueue::run_batch` instead.

use noc_network::{LoadPoint, Network, NetworkConfig};
use peh_dally::figures::{Figure, Series};
use peh_dally::SimScale;
use runqueue::{run_tasks, CancelToken, Task};

/// Builds a figure by running every series' load grid as one batch
/// under the host's core budget, each series ending at its first
/// saturated load. `progress` enables per-point lines on stderr (stdout
/// stays clean for the table/CSV).
#[must_use]
pub fn queued_figure(
    name: &str,
    configs: Vec<(String, NetworkConfig)>,
    scale: SimScale,
    progress: bool,
) -> Figure {
    let configs = configs
        .into_iter()
        .map(|(label, cfg)| (label, scale.apply(cfg)))
        .collect();
    curves(
        name,
        configs,
        &scale.loads(),
        crate::meta::host_parallelism(),
        progress,
        run_point,
    )
}

/// One point of a curve: `config` at `load`, or `None` if `cancel`
/// stopped the run.
fn run_point(config: &NetworkConfig, load: f64, cancel: &CancelToken) -> Option<LoadPoint> {
    let cfg = config
        .clone()
        .with_injection(load)
        .with_cancel(cancel.clone());
    let r = Network::new(cfg).run();
    (!r.cancelled).then(|| r.into())
}

/// The batch behind [`queued_figure`], with the point runner as a seam:
/// `run(config, load, token)` returns the point, or `None` once `token`
/// has stopped it.
fn curves<F>(
    name: &str,
    configs: Vec<(String, NetworkConfig)>,
    loads: &[f64],
    cores: usize,
    progress: bool,
    run: F,
) -> Figure
where
    F: Fn(&NetworkConfig, f64, &CancelToken) -> Option<LoadPoint> + Sync,
{
    let n = loads.len();
    let tokens: Vec<CancelToken> = (0..configs.len() * n).map(|_| CancelToken::new()).collect();
    let tasks: Vec<Task<usize>> = (0..tokens.len())
        .map(|idx| {
            let cfg = &configs[idx / n].1;
            let load = loads[idx % n];
            Task {
                item: idx,
                width: cfg.engine.threads_per_run().min(cfg.mesh.nodes()),
                // Lowest load first; equal loads in legend order.
                priority: [-load, 0.0],
            }
        })
        .collect();
    let total = tasks.len();
    let mut done = 0;
    let results = run_tasks(
        tasks,
        cores,
        &CancelToken::new(),
        |idx, _| {
            let token = &tokens[idx];
            if token.is_cancelled() {
                return None;
            }
            let point = run(&configs[idx / n].1, loads[idx % n], token)?;
            if point.saturated {
                // The rest of this series' row lies past its saturation.
                let row_end = (idx / n + 1) * n;
                tokens[idx + 1..row_end]
                    .iter()
                    .for_each(CancelToken::cancel);
            }
            Some(point)
        },
        |idx, point: &Option<LoadPoint>| {
            done += 1;
            if let (true, Some(p)) = (progress, point) {
                eprintln!(
                    "[{done:>3}/{total}] {name}: {} load {:.2} -> {}",
                    configs[idx / n].0,
                    p.offered,
                    p.latency
                        .map_or_else(|| "saturated".into(), |l| format!("{l:.1} cycles")),
                );
            }
        },
    );
    let mut results = results.into_iter().map(Option::flatten);
    let series = configs
        .into_iter()
        .map(|(label, _)| {
            let mut points: Vec<LoadPoint> = Vec::new();
            for point in results.by_ref().take(n) {
                // A point above the first saturated one was skipped,
                // cancelled or, if it finished first, is dropped.
                if !points.last().is_some_and(|p| p.saturated) {
                    points.push(point.expect("a point up to saturation always runs"));
                }
            }
            Series { label, points }
        })
        .collect();
    Figure {
        name: name.into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_network::config::EngineKind;
    use noc_network::RouterKind;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Mutex};
    use std::time::{Duration, Instant};

    fn same_points(a: &[LoadPoint], b: &[LoadPoint], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.offered.to_bits(), y.offered.to_bits(), "{what}");
            assert_eq!(
                x.latency.map(f64::to_bits),
                y.latency.map(f64::to_bits),
                "{what} at load {}",
                x.offered
            );
            assert_eq!(x.accepted.to_bits(), y.accepted.to_bits(), "{what}");
            assert_eq!(x.saturated, y.saturated, "{what}");
        }
    }

    /// The reference curve: one `Network::run` per load, in load order,
    /// ending at the first saturated point.
    fn run_loop(cfg: &NetworkConfig, loads: &[f64]) -> Vec<LoadPoint> {
        let mut curve: Vec<LoadPoint> = Vec::new();
        for &load in loads {
            if curve.last().is_some_and(|p| p.saturated) {
                break;
            }
            curve.push(Network::new(cfg.clone().with_injection(load)).run().into());
        }
        curve
    }

    #[test]
    fn queued_figure_matches_sweep_bit_for_bit() {
        // A four-series figure on the 4x4 mesh whose batch must
        // reproduce, series by series, a load sweep of one
        // `Network::run` per point. Its 8-load grid reaches saturation,
        // and on a host with fewer than 32 cores the batch's 32 points
        // outnumber the workers, so each worker runs several of them.
        let scale = SimScale {
            warmup_cycles: 100,
            sample_packets: 150,
            max_cycles: 8_000,
            load_step: 0.12,
            max_load: 0.96,
        };
        let wh = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 });
        let configs = vec![
            ("wh".to_string(), wh.clone()),
            // Differs from "wh" only in a hashed knob, so the two series
            // must come out different.
            ("wh single-cycle".to_string(), wh.with_single_cycle(true)),
            (
                "specvc".to_string(),
                NetworkConfig::mesh(
                    4,
                    RouterKind::SpeculativeVc {
                        vcs: 2,
                        buffers_per_vc: 4,
                    },
                ),
            ),
            // 99 shards clamp to the 16-node mesh inside the engine, and
            // the point's width clamps the same way.
            (
                "vc sharded".to_string(),
                NetworkConfig::mesh(
                    4,
                    RouterKind::VirtualChannel {
                        vcs: 2,
                        buffers_per_vc: 4,
                    },
                )
                .with_engine(EngineKind::ParallelShards { shards: 99 }),
            ),
        ];
        let loads = scale.loads();
        assert_eq!(loads.len(), 8);
        let fig = queued_figure("test", configs.clone(), scale, false);
        assert_eq!(fig.name, "test");
        assert_eq!(fig.series.len(), configs.len());
        for (series, (label, cfg)) in fig.series.iter().zip(&configs) {
            assert_eq!(&series.label, label);
            same_points(
                &series.points,
                &run_loop(&scale.apply(cfg.clone()), &loads),
                label,
            );
        }
        // A series that saturates inside the grid ends at its first
        // saturated point.
        let wh = &fig.series[0];
        assert!(wh.points.len() < loads.len(), "wh saturates in the grid");
        assert!(wh.points.last().expect("points").saturated);
        let (single, wh_latency) = (&fig.series[1], wh.points[0].latency);
        assert_ne!(single.points[0].latency, wh_latency, "twins differ");

        // The same batch again agrees bit for bit.
        let again = queued_figure("test", configs.clone(), scale, false);
        for (a, b) in fig.series.iter().zip(&again.series) {
            same_points(&a.points, &b.points, &a.label);
        }

        // An empty grid still names every series, each with no points.
        let empty = SimScale {
            max_load: 0.0,
            ..scale
        };
        let fig = queued_figure("empty", configs, empty, false);
        assert_eq!(fig.series.len(), 4);
        assert!(fig.series.iter().all(|s| s.points.is_empty()));
    }

    #[test]
    fn a_cancelled_token_stops_a_network_point() {
        // The warm-up outlasts the first cancellation poll.
        let cfg = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 })
            .with_warmup(2 * noc_network::CANCEL_BATCH)
            .with_sample(100);
        assert!(run_point(&cfg, 0.2, &CancelToken::new()).is_some());
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(run_point(&cfg, 0.2, &cancel).is_none());
    }

    /// A point of a fake curve: saturated from `knee` up.
    fn fake_point(load: f64, knee: f64) -> LoadPoint {
        LoadPoint {
            offered: load,
            latency: (load < knee).then_some(30.0 + load),
            accepted: load.min(knee),
            saturated: load >= knee,
        }
    }

    /// The fake runner's knee: Wormhole buffers in tenths of capacity.
    fn knee(cfg: &NetworkConfig) -> f64 {
        match cfg.router {
            RouterKind::Wormhole { buffers } => buffers as f64 / 10.0,
            _ => unreachable!("the tests build wormhole series only"),
        }
    }

    fn wormhole(buffers: usize) -> (String, NetworkConfig) {
        (
            format!("wh{buffers}"),
            NetworkConfig::mesh(4, RouterKind::Wormhole { buffers }),
        )
    }

    #[test]
    fn a_series_stops_at_its_first_saturated_load() {
        // On one core the batch is serial, so no load above a series'
        // first saturated load is ever handed to the runner.
        let loads = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        let ran = Mutex::new(Vec::new());
        let fig = curves(
            "fake",
            vec![wormhole(2), wormhole(4), wormhole(9)],
            &loads,
            1,
            false,
            |cfg, load, _| {
                ran.lock().unwrap().push((knee(cfg), load));
                Some(fake_point(load, knee(cfg)))
            },
        );
        let ran = ran.into_inner().unwrap();
        assert!(
            ran.iter().all(|&(knee, load)| load <= knee),
            "ran past saturation: {ran:?}"
        );
        assert_eq!(ran.len(), 2 + 4 + 6, "every point up to saturation ran");
        let lens: Vec<usize> = fig.series.iter().map(|s| s.points.len()).collect();
        assert_eq!(lens, [2, 4, 6]);
        assert!(fig.series[0].points[1].saturated);
        assert!(fig.series[1].points[3].saturated);
        assert!(fig.series[2].points.iter().all(|p| !p.saturated));
        assert_eq!(fig.series[1].label, "wh4");
    }

    #[test]
    fn a_saturated_point_cancels_the_running_points_above_it() {
        // On two cores the batch starts loads 0.1 and 0.2 together. Load
        // 0.1 waits until 0.2 is running, then comes back saturated; 0.2
        // must see its token cancelled, and 0.3 must never start.
        let (started, wait_started) = mpsc::channel();
        let wait_started = Mutex::new(wait_started);
        let saw_cancel = AtomicBool::new(false);
        let ran = Mutex::new(Vec::new());
        let fig = curves(
            "fake",
            vec![wormhole(1)],
            &[0.1, 0.2, 0.3],
            2,
            false,
            |cfg, load, cancel| {
                ran.lock().unwrap().push(load);
                if load > 0.15 {
                    started.send(()).expect("load 0.1 waits for this");
                    // A token is observed by polling, as a run polls it.
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while !cancel.is_cancelled() {
                        assert!(Instant::now() < deadline, "load {load} never cancelled");
                        std::thread::yield_now();
                    }
                    saw_cancel.store(true, Ordering::SeqCst);
                    return None;
                }
                let wait = wait_started.lock().unwrap();
                wait.recv_timeout(Duration::from_secs(30))
                    .expect("load 0.2 runs beside load 0.1");
                Some(fake_point(load, knee(cfg)))
            },
        );
        assert!(saw_cancel.load(Ordering::SeqCst));
        let mut ran = ran.into_inner().unwrap();
        ran.sort_by(f64::total_cmp);
        assert_eq!(ran, [0.1, 0.2], "load 0.3 is skipped, not run");
        assert_eq!(fig.series[0].points.len(), 1);
        assert!(fig.series[0].points[0].saturated);
    }
}
