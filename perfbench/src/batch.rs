//! One pass of a workload through `runqueue::run_batch`, timed from
//! outside.

use crate::trace::Tracer;
use crate::workload::{Job, Workload, CORES};
use noc_network::NetworkConfig;
use runqueue::{
    run_batch, CancelToken, JobSpec, JsonlSink, MemorySink, PointRecord, PointRunner, ResultSink,
};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Where the benchmark writes its files, relative to the checkout root.
pub const OUT_DIR: &str = "perfbench/out";

/// What one batch did.
#[derive(Debug)]
pub struct Batch {
    /// Host time from the `run_batch` call to the last record.
    pub wall: Duration,
    /// Host time summed over every `run_point` call (a sharded point
    /// counts once).
    pub point_time: Duration,
    /// The records the sink received, in completion order.
    pub records: Vec<PointRecord>,
}

/// Times every `run_point` call of `inner` and turns a panicking point
/// into a missing record, which the check counts as a failure.
pub struct Timed<R> {
    inner: R,
    nanos: AtomicU64,
}

impl<R> Timed<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        Timed {
            inner,
            nanos: AtomicU64::new(0),
        }
    }

    /// The wrapped runner.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: PointRunner<NetworkConfig>> PointRunner<NetworkConfig> for Timed<R> {
    fn run_point(
        &self,
        config: &NetworkConfig,
        seed: u64,
        load: f64,
        cancel: &CancelToken,
    ) -> Option<PointRecord> {
        let start = Instant::now();
        let rec = catch_unwind(AssertUnwindSafe(|| {
            self.inner.run_point(config, seed, load, cancel)
        }));
        // A statistic only: read after the batch's threads have joined.
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        rec.ok().flatten()
    }
}

/// Forwards records to the workload's sink, keeping a copy for the check
/// and the time of the last one (and a span per record when traced).
struct Capture<'a> {
    inner: &'a mut (dyn ResultSink + Send),
    tracer: Option<&'a Tracer>,
    records: Vec<PointRecord>,
    last: Option<Instant>,
}

impl ResultSink for Capture<'_> {
    fn record(&mut self, rec: &PointRecord) {
        let span = self
            .tracer
            .map(|t| t.open("ResultSink::record", Some(t.batch()), None));
        self.inner.record(rec);
        if let (Some(t), Some(span)) = (self.tracer, span) {
            t.close(span);
        }
        self.last = Some(Instant::now());
        self.records.push(rec.clone());
    }
}

/// Runs every point of `jobs` once through `run_batch` on `CORES` cores
/// into the workload's sink (a fresh file for the JSONL workloads).
///
/// # Errors
///
/// Fails if the JSONL sink cannot be opened.
pub fn run<R: PointRunner<NetworkConfig>>(
    workload: Workload,
    jobs: &[Job],
    runner: &Timed<R>,
    tracer: Option<&Tracer>,
) -> Result<Batch, String> {
    let specs: Vec<JobSpec<NetworkConfig>> = jobs.iter().map(|j| j.spec.clone()).collect();
    let mut memory = MemorySink::default();
    let mut jsonl;
    let inner: &mut (dyn ResultSink + Send) = if workload.jsonl() {
        let path = PathBuf::from(OUT_DIR).join(format!("{}.jsonl", workload.name()));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", path.display()))
            }
            _ => {}
        }
        jsonl = JsonlSink::open_append(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        &mut jsonl
    } else {
        &mut memory
    };
    let mut sink = Capture {
        inner,
        tracer,
        records: Vec::new(),
        last: None,
    };
    runner.nanos.store(0, Ordering::Relaxed);
    let span = tracer.map(Tracer::begin_batch);
    let start = Instant::now();
    run_batch(
        &specs,
        CORES,
        &CancelToken::new(),
        runner,
        &HashSet::new(),
        &mut sink,
        |_, _, _| {},
    );
    let end = Instant::now();
    if let (Some(t), Some(span)) = (tracer, span) {
        t.close(span);
    }
    Ok(Batch {
        wall: sink.last.unwrap_or(end) - start,
        point_time: Duration::from_nanos(runner.nanos.load(Ordering::Relaxed)),
        records: sink.records,
    })
}
