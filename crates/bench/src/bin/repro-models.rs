//! Related-work model comparison (paper §2): Chien's single-cycle
//! monolithic model, Duato's fixed three-stage pipeline, and the
//! Peh-Dally variable-depth pipeline, as per-hop router latency in τ
//! across virtual-channel counts.
use delay_model::{canonical, chien, duato, FlowControl, RouterParams, RoutingFunction};

fn main() {
    repro_bench::no_args_or_exit();
    println!("Per-hop router latency (τ) vs virtual channels, p = 5, clk = 20 τ4 = 100 τ");
    println!(
        "{:>4} {:>14} {:>14} {:>16} {:>16}",
        "v", "Chien (1-cyc)", "Duato (3-stg)", "Peh-Dally VC", "Peh-Dally spec"
    );
    for v in [1u32, 2, 4, 8, 16, 32] {
        let params = RouterParams::with_channels(5, v.max(1));
        let chien = chien::chien_critical_path(&params).value();
        let duato = duato::DuatoPipeline::of(&params).per_hop_latency().value();
        let vc = f64::from(
            canonical::pipeline(FlowControl::VirtualChannel(RoutingFunction::Rv), &params).depth(),
        ) * params.clk.value();
        let spec = f64::from(
            canonical::pipeline(
                FlowControl::SpeculativeVirtualChannel(RoutingFunction::Rv),
                &params,
            )
            .depth(),
        ) * params.clk.value();
        println!("{v:>4} {chien:>14.0} {duato:>14.0} {vc:>16.0} {spec:>16.0}");
    }
    println!();
    println!(
        "Reading: monolithic and fixed-pipeline models stretch the cycle as v\n\
         grows; the variable-depth model holds the system clock and adds\n\
         stages only when an atomic module overflows - and speculation keeps\n\
         the stage count at the wormhole router's 3 for v <= 16."
    );
}
