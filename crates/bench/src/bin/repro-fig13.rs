//! Regenerates Figure 13 (see `peh_dally::figures::fig13_configs`),
//! running every series as one run-queue batch (see
//! `repro_bench::queued`).
//! Usage: repro-fig13 [quick|medium|paper] [--csv]
fn main() {
    repro_bench::figure_main("Figure 13", peh_dally::figures::fig13_configs());
}
