//! Ablation studies over the design choices (speculation, buffer depth,
//! VC count, credit-path latency, speculation accuracy).
//! Each curve runs through the sequential `noc_network::sweep::sweep`,
//! which stops at the first saturated load instead of running every
//! point past it to the scale's cycle limit.
//! Usage: repro-ablations [quick|medium|paper]
use peh_dally::ablations;

fn main() {
    let scale = repro_bench::harness_options_or_exit().scale;
    print!(
        "{}",
        ablations::render("== Speculation on/off ==", &ablations::speculation(scale))
    );
    println!();
    print!(
        "{}",
        ablations::render(
            "== Buffer depth (specVC, 2 VCs) ==",
            &ablations::buffer_depth(scale)
        )
    );
    println!();
    print!(
        "{}",
        ablations::render(
            "== VC count at 16 flits/port (specVC) ==",
            &ablations::vc_count(scale)
        )
    );
    println!();
    print!(
        "{}",
        ablations::render(
            "== Credit propagation latency (specVC 2x4) ==",
            &ablations::credit_path(scale)
        )
    );
    println!();
    println!("== Speculation accuracy vs load (specVC 2x4) ==");
    for (load, acc) in ablations::speculation_accuracy(scale, &[0.1, 0.3, 0.5]) {
        println!(
            "  load {load:.1}: {:.0}% of speculative grants used",
            acc * 100.0
        );
    }
}
