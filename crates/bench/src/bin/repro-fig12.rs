//! Regenerates Figure 12: combined VA+SA stage delay of a speculative
//! router for the three routing-function ranges.
use peh_dally::{figures, report};
fn main() {
    repro_bench::no_args_or_exit();
    print!("{}", report::fig12_text(&figures::fig12()));
}
