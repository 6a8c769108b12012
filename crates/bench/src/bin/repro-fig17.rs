//! Regenerates Figure 17 (see `peh_dally::figures::fig17_configs`),
//! running every series as one run-queue batch (see
//! `repro_bench::queued`).
//! Usage: repro-fig17 [quick|medium|paper] [--csv]
fn main() {
    repro_bench::figure_main("Figure 17", peh_dally::figures::fig17_configs());
}
