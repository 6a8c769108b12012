//! Ablation studies over the design choices (speculation, buffer depth,
//! VC count, credit-path latency, speculation accuracy).
//! The four tables' curves run as one batch
//! (`repro_bench::queued::queued_figure`), each ending at its first
//! saturated load; the speculation-accuracy points are three direct runs.
//! Usage: repro-ablations [quick|medium|paper] [--csv]
use peh_dally::ablations::{self, AblationRow};

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
    let configs = tables
        .iter()
        .flat_map(|(_, _, configs)| configs.iter().cloned())
        .collect();
    let fig = repro_bench::queued::queued_figure("ablations", configs, opts.scale, !opts.csv);
    let mut series = fig.series.iter();
    let rows: Vec<(&str, Vec<AblationRow>)> = tables
        .iter()
        .map(|(name, _, configs)| {
            let rows = series.by_ref().take(configs.len());
            (*name, rows.map(AblationRow::from).collect())
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
