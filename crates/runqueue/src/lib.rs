//! Batched multi-run orchestration: sweeps × seeds × configs under one
//! core budget.
//!
//! A single simulation run got fast (event-driven, allocation-free,
//! sharded-parallel); this crate is the layer that schedules *many* runs
//! — the service-shaped substrate every batch consumer shares instead of
//! hand-rolling its own thread pool:
//!
//! * [`CancelToken`] — a poisonable cooperative-cancellation flag,
//!   checked by runners at cycle-batch granularity.
//! * [`queue`] — a priority run queue over scoped worker threads that
//!   keeps the *total* core footprint of concurrently running tasks
//!   within one global budget. A task may itself be a multi-threaded
//!   (sharded-parallel) run: the queue owns the `workers × shards ≤
//!   cores` arithmetic that each sweep used to approximate on its own.
//! * [`job`] — [`JobSpec`]: one job = config × seed range × load grid,
//!   with deterministic per-job seed derivation, expanded into point
//!   tasks keyed by `(config hash, seed, load)`.
//! * [`sink`] — [`ResultSink`]: incremental result consumption. The
//!   [`JsonlSink`] streams one record per completed point and, on
//!   reopen, deduplicates already-completed keys so an interrupted batch
//!   resumes without rework.
//! * [`spec`] — a minimal TOML-subset parser for job files (the `runq`
//!   CLI's input format).
//!
//! The crate is generic over the config type (see [`JobConfig`]); the
//! network simulator plugs in through `noc_network::orchestrate`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod job;
pub mod queue;
pub mod sink;
pub mod spec;

pub use cancel::CancelToken;
pub use job::{
    derive_seed, run_batch, BatchOutcome, JobConfig, JobSpec, NodeDrops, PointKey, PointRecord,
    PointRunner,
};
pub use queue::{run_tasks, Task};
pub use sink::{json_escape, JsonlSink, MemorySink, ResultSink};
