//! # peh-dally
//!
//! A reproduction of Li-Shiuan Peh & William J. Dally, *"A Delay Model and
//! Speculative Architecture for Pipelined Routers"*, HPCA 2001.
//!
//! This facade crate ties the workspace together and exposes one function
//! per table/figure of the paper:
//!
//! | paper artifact | function | what it does |
//! |---|---|---|
//! | Table 1 | [`figures::table1`] | parametric delay equations at p=5, w=32, v=2 |
//! | Figure 11 | [`figures::fig11_nonspeculative`], [`figures::fig11_speculative`] | model-prescribed pipelines vs (p, v) |
//! | Figure 12 | [`figures::fig12`] | combined VA∥SA stage delay vs routing function |
//! | Figure 13 | [`figures::fig13_configs`] | latency–throughput, 8 buffers/port |
//! | Figure 14 | [`figures::fig14_configs`] | latency–throughput, 16 buffers/port, 2 VCs |
//! | Figure 15 | [`figures::fig15_configs`] | latency–throughput, 16 buffers/port, 4 VCs |
//! | Figure 17 | [`figures::fig17_configs`] | pipelined model vs single-cycle ("unit latency") model |
//! | Figure 18 | [`figures::fig18_configs`] | credit propagation latency sensitivity |
//!
//! A simulated figure's function returns the labelled configurations of
//! its series; `repro_bench::queued::queued_figure` sweeps them as one
//! run-queue batch at a [`SimScale`], which chooses between a quick
//! smoke scale and the paper's full protocol (10,000 warm-up cycles,
//! 100,000 tagged packets).
//!
//! ```
//! use peh_dally::figures;
//!
//! let table = figures::table1();
//! assert_eq!(table.len(), 9); // every row of Table 1 reproduced
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod analytic;
pub mod figures;
pub mod report;
pub mod scale;

pub use analytic::zero_load_latency;
pub use scale::SimScale;

// Re-export the subsystem crates so downstream users need only one
// dependency.
pub use arbitration;
pub use delay_model;
pub use logical_effort;
pub use noc_network;
pub use router_core;
