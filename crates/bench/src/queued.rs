//! Figure reproduction on the run queue: every simulated `repro-*`
//! binary builds its series as one [`runqueue`] batch.
//!
//! One figure = one batch: every series becomes a [`JobSpec`] over the
//! scale's load grid, all points share one core budget (a point of a
//! sharded configuration occupies its shard count, clamped to the mesh),
//! and completed points stream through a [`MemorySink`] (with live
//! progress on stderr) before being reassembled into a
//! [`peh_dally::figures::Figure`]. Each series is **identical** to the
//! sequential [`noc_network::sweep::sweep`] of its configuration: every
//! point is the same deterministic `Network::run`, and the sweep's
//! stop-at-saturation truncation is applied per series post hoc. The
//! batch runs the points past saturation too (up to the scale's
//! `max_cycles` each) in exchange for interleaving all series under
//! `workers × shards ≤ cores`.

use noc_network::{NetworkConfig, NetworkRunner};
use peh_dally::figures::{Figure, Series};
use peh_dally::SimScale;
use runqueue::{run_batch, CancelToken, JobConfig, JobSpec, MemorySink, PointRecord};
use std::collections::HashSet;

/// Builds a figure by running every series' load grid as one batch
/// under the host's core budget. `progress` enables per-point lines on
/// stderr (stdout stays clean for the table/CSV).
#[must_use]
pub fn queued_figure(
    name: &str,
    configs: Vec<(String, NetworkConfig)>,
    scale: SimScale,
    progress: bool,
) -> Figure {
    let loads = scale.loads();
    let jobs: Vec<JobSpec<NetworkConfig>> = configs
        .iter()
        .enumerate()
        .map(|(i, (label, cfg))| {
            let cfg = scale.apply(cfg.clone());
            let width = cfg.engine.threads_per_run().min(cfg.mesh.nodes());
            JobSpec::new(label.clone(), cfg.clone(), cfg.seed)
                .with_loads(loads.clone())
                .with_width(width)
                // Earlier series first among equal loads, so progress
                // output roughly follows legend order.
                .with_priority(-(i as f64))
        })
        .collect();
    let cores = crate::meta::host_parallelism();
    let mut sink = MemorySink::default();
    run_batch(
        &jobs,
        cores,
        &CancelToken::new(),
        &NetworkRunner,
        &HashSet::new(),
        &mut sink,
        |done, total, rec: &PointRecord| {
            if progress {
                eprintln!(
                    "[{done:>3}/{total}] {name}: {} load {:.2} -> {}",
                    rec.job,
                    rec.load,
                    rec.latency
                        .map_or_else(|| "saturated".into(), |l| format!("{l:.1} cycles")),
                );
            }
        },
    );
    let series = jobs
        .iter()
        .map(|job| {
            let hash = job.config.config_hash();
            let mut points = Vec::new();
            // In load order, truncated after the first saturated point —
            // exactly `SweepOptions { stop_at_saturation: true }`.
            for &load in &loads {
                let rec = sink
                    .records
                    .iter()
                    .find(|r| r.key.config == hash && r.key.load_bits == load.to_bits())
                    .expect("batch completed every point");
                points.push(rec.into());
                if rec.saturated {
                    break;
                }
            }
            Series {
                label: job.name.clone(),
                points,
            }
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
    use noc_network::sweep::{sweep, LoadPoint, SweepOptions};
    use noc_network::RouterKind;

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

    #[test]
    fn queued_figure_matches_sweep_bit_for_bit() {
        // A four-series figure on the 4x4 mesh whose batch must
        // reproduce, series by series, the sequential sweep's curve.
        // Its 8-load grid reaches saturation, and on a host with fewer
        // than 32 cores the batch's 32 points outnumber the workers, so
        // each worker runs several of them.
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
            // Differs from "wh" only in a hashed knob: the config hash
            // must keep the two series' records apart.
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
        let opts = SweepOptions {
            loads: loads.clone(),
            stop_at_saturation: true,
        };
        for (series, (label, cfg)) in fig.series.iter().zip(&configs) {
            assert_eq!(&series.label, label);
            same_points(
                &series.points,
                &sweep(&scale.apply(cfg.clone()), &opts),
                label,
            );
        }
        // Post-hoc truncation: a series that saturates inside the grid
        // ends at its first saturated point.
        let wh = &fig.series[0];
        assert!(wh.points.len() < loads.len(), "wh saturates in the grid");
        assert!(wh.points.last().expect("points").saturated);

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
}
