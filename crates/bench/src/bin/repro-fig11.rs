//! Regenerates Figure 11: model-prescribed pipelines of (a) non-speculative
//! and (b) speculative virtual-channel routers over the (v, p) grid.
use peh_dally::{figures, report};
fn main() {
    repro_bench::no_args_or_exit();
    print!(
        "{}",
        report::pipeline_bars_text(
            "Figure 11(a) — non-speculative VC routers (Rpv)",
            &figures::fig11_nonspeculative()
        )
    );
    println!();
    print!(
        "{}",
        report::pipeline_bars_text(
            "Figure 11(b) — speculative VC routers (Rv)",
            &figures::fig11_speculative()
        )
    );
}
