//! Regenerates Table 1: parametric delay equations evaluated at the
//! paper's reference point, alongside the paper's columns.
fn main() {
    repro_bench::no_args_or_exit();
    print!("{}", peh_dally::figures::table1_text());
}
