//! Regenerates Figure 18 (see `peh_dally::figures::fig18_configs`),
//! running every series as one run-queue batch (see
//! `repro_bench::queued`).
//! Usage: repro-fig18 [quick|medium|paper] [--csv]
fn main() {
    repro_bench::figure_main("Figure 18", peh_dally::figures::fig18_configs());
}
