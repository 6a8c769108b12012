//! Regenerates Figure 14 (see `peh_dally::figures::fig14_configs`),
//! running every series as one run-queue batch (see
//! `repro_bench::queued`).
//! Usage: repro-fig14 [quick|medium|paper] [--csv]
fn main() {
    repro_bench::figure_main("Figure 14", peh_dally::figures::fig14_configs());
}
