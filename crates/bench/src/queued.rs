//! Figure reproduction on the run queue: the ported `repro-*` binaries
//! build their series as a [`runqueue`] batch instead of hand-rolling a
//! sweep per series.
//!
//! One figure = one batch: every series becomes a [`JobSpec`] over the
//! scale's load grid, all points share one core budget, and completed
//! points stream through a [`MemorySink`] (with live progress on
//! stderr) before being reassembled into the same
//! [`peh_dally::figures::Figure`] the direct sweep path produces. The
//! output is **identical** to `sweep_parallel` per series — each point
//! is the same deterministic `Network::run`, and the same
//! stop-at-saturation truncation is applied per series post hoc — the
//! difference is purely *scheduling*: points of all series interleave
//! under `workers × shards ≤ cores` instead of one sweep at a time.

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

/// Entry point for a queue-backed figure binary: parses the standard
/// harness arguments, builds the figure through [`queued_figure`], and
/// prints the same table/chart/CSV as `repro_bench::figure_main`.
pub fn queued_figure_main(name: &str, configs: Vec<(String, NetworkConfig)>) {
    let opts = crate::harness_options_or_exit();
    let fig = queued_figure(name, configs, opts.scale, !opts.csv);
    crate::print_figure(&fig, opts.csv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_network::sweep::{sweep_parallel, SweepOptions};
    use noc_network::RouterKind;

    #[test]
    fn queued_figure_matches_sweep_parallel_bit_for_bit() {
        // A tiny two-series figure on the 4x4 mesh: the queued batch
        // must reproduce exactly what per-series sweep_parallel curves
        // produce (same points, same truncation), because every point is
        // the same deterministic run.
        let scale = SimScale {
            warmup_cycles: 100,
            sample_packets: 150,
            max_cycles: 8_000,
            load_step: 0.3,
            max_load: 0.9,
        };
        let configs = vec![
            (
                "wh".to_string(),
                NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 }),
            ),
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
        ];
        let fig = queued_figure("test", configs.clone(), scale, false);
        assert_eq!(fig.series.len(), 2);
        let opts = SweepOptions {
            loads: scale.loads(),
            stop_at_saturation: true,
        };
        for (series, (label, cfg)) in fig.series.iter().zip(&configs) {
            assert_eq!(&series.label, label);
            let swept = sweep_parallel(&scale.apply(cfg.clone()), &opts);
            assert_eq!(series.points.len(), swept.len(), "{label}");
            for (a, b) in series.points.iter().zip(&swept) {
                assert_eq!(a.offered.to_bits(), b.offered.to_bits());
                assert_eq!(a.latency.map(f64::to_bits), b.latency.map(f64::to_bits));
                assert_eq!(a.accepted.to_bits(), b.accepted.to_bits());
                assert_eq!(a.saturated, b.saturated);
            }
        }
    }
}
