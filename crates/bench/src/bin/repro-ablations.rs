//! Ablation studies over the design choices (speculation, buffer depth,
//! VC count, credit-path latency, speculation accuracy).
//! The four tables' curves run as one batch
//! (`repro_bench::queued::queued_figure`), each ending at its first
//! saturated load; a configuration that several tables share runs once.
//! The speculation-accuracy points are three direct runs.
//! Usage: repro-ablations [quick|medium|paper] [--csv]
use noc_network::NetworkConfig;
use peh_dally::ablations::{self, AblationRow};
use runqueue::JobConfig;

fn main() {
    let opts = repro_bench::harness_options_or_exit();
    let tables = [
        (
            "speculation",
            "Speculation on/off",
            ablations::speculation(),
        ),
        (
            "buffer_depth",
            "Buffer depth (specVC, 2 VCs)",
            ablations::buffer_depth(),
        ),
        (
            "vc_count",
            "VC count at 16 flits/port (specVC)",
            ablations::vc_count(),
        ),
        (
            "credit_path",
            "Credit propagation latency (specVC 2x4)",
            ablations::credit_path(),
        ),
    ];
    // One series per distinct configuration (a run's results depend on
    // its config hash and seed alone); each table row reads its series
    // under the row's own label.
    let key = |cfg: &NetworkConfig| (cfg.config_hash(), cfg.seed);
    let mut keys = Vec::new();
    let mut distinct = Vec::new();
    for (label, cfg) in tables.iter().flat_map(|(_, _, configs)| configs) {
        if !keys.contains(&key(cfg)) {
            keys.push(key(cfg));
            distinct.push((label.clone(), cfg.clone()));
        }
    }
    let fig = repro_bench::queued::queued_figure("ablations", distinct, opts.scale, !opts.csv);
    let rows: Vec<(&str, Vec<AblationRow>)> = tables
        .iter()
        .map(|(name, _, configs)| {
            let rows = configs.iter().map(|(label, cfg)| {
                let series = keys.iter().position(|k| *k == key(cfg));
                AblationRow {
                    label: label.clone(),
                    ..AblationRow::from(&fig.series[series.expect("every configuration ran")])
                }
            });
            (*name, rows.collect())
        })
        .collect();
    let accuracy = ablations::speculation_accuracy(opts.scale, &[0.1, 0.3, 0.5]);
    if opts.csv {
        print!("{}", ablations::csv(&rows, &accuracy));
        return;
    }
    for ((_, title, _), (_, rows)) in tables.iter().zip(&rows) {
        print!("{}", ablations::render(&format!("== {title} =="), rows));
        println!();
    }
    println!("== Speculation accuracy vs load (specVC 2x4) ==");
    for (load, acc) in accuracy {
        println!(
            "  load {load:.1}: {:.0}% of speculative grants used",
            acc * 100.0
        );
    }
}
