//! Regenerates Figure 15 (see `peh_dally::figures::fig15_configs`),
//! running every series as one run-queue batch (see
//! `repro_bench::queued`).
//! Usage: repro-fig15 [quick|medium|paper] [--csv]
fn main() {
    repro_bench::figure_main("Figure 15", peh_dally::figures::fig15_configs());
}
