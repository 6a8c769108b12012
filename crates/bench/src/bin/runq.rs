//! `runq`: drive a batch of simulation jobs from a job file.
//!
//! ```text
//! runq JOBFILE [--out results.jsonl] [--cores N] [--dry-run]
//! ```
//!
//! The job file is a small TOML dialect (see `runqueue::spec` and the
//! README's "Orchestration" section): a `[defaults]` table plus one
//! `[[job]]` table per job, each a config × seed-range × load-grid. The
//! whole batch runs on the [`runqueue`] priority queue under one core
//! budget (`--cores` overrides the file's `cores`, which defaults to the
//! host's parallelism); a job with `shards = N` occupies N cores per
//! point, and the queue keeps `Σ widths ≤ cores`.
//!
//! Results stream **incrementally** to the JSONL file (default: the job
//! file's name with `.jsonl`), one record per completed point, flushed
//! as each finishes — plus a `{"meta": ...}` footer with the shared
//! benchmark provenance fields. Re-running the same command *resumes*:
//! records already in the file are recognized by their
//! `(config hash, seed, load)` key and skipped, so an interrupted batch
//! finishes without redoing completed work.

use repro_bench::{jobfile, meta};
use runqueue::{run_batch, CancelToken, JsonlSink, PointRecord};
use telemetry::ProgressMeter;

/// Compact ETA rendering: seconds under two minutes, minutes after.
fn fmt_eta(secs: u64) -> String {
    if secs < 120 {
        format!("{secs}s")
    } else {
        format!("{}m{:02}s", secs / 60, secs % 60)
    }
}

struct Options {
    jobfile: String,
    out: Option<String>,
    cores: Option<usize>,
    dry_run: bool,
}

const USAGE: &str = "usage: runq JOBFILE [--out results.jsonl] [--cores N] [--dry-run]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        jobfile: String::new(),
        out: None,
        cores: None,
        dry_run: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => opts.out = Some(args.next().ok_or("--out needs a path")?),
            "--cores" => {
                let n: usize = args
                    .next()
                    .ok_or("--cores needs a count")?
                    .parse()
                    .map_err(|_| "bad --cores value".to_string())?;
                if n == 0 {
                    return Err("--cores must be at least 1".into());
                }
                opts.cores = Some(n);
            }
            "--dry-run" => opts.dry_run = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            other if opts.jobfile.is_empty() => opts.jobfile = other.to_string(),
            other => return Err(format!("unexpected argument {other}\n{USAGE}")),
        }
    }
    if opts.jobfile.is_empty() {
        return Err(USAGE.into());
    }
    Ok(opts)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("runq: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let text = std::fs::read_to_string(&opts.jobfile)
        .map_err(|e| format!("reading {}: {e}", opts.jobfile))?;
    let file = runqueue::spec::parse(&text)?;
    let batch = jobfile::build_batch(&file)?;
    let cores = opts.cores.unwrap_or(batch.cores);
    let out_path = opts.out.clone().unwrap_or_else(|| {
        let stem = opts.jobfile.strip_suffix(".toml").unwrap_or(&opts.jobfile);
        format!("{stem}.jsonl")
    });

    let total_points: usize = batch
        .jobs
        .iter()
        .map(|j| j.loads.len() * j.reps as usize)
        .sum();
    eprintln!(
        "runq: {} job(s), {total_points} point(s), core budget {cores}, streaming to {out_path}",
        batch.jobs.len()
    );
    if opts.dry_run {
        for job in &batch.jobs {
            println!(
                "{}: {} ({} loads x {} seeds, width {}, priority {})",
                job.name,
                job.config.router,
                job.loads.len(),
                job.reps,
                job.width,
                job.priority
            );
        }
        return Ok(());
    }

    let mut sink =
        JsonlSink::open_append(&out_path).map_err(|e| format!("opening {out_path}: {e}"))?;
    let skip = sink.completed().clone();
    if !skip.is_empty() {
        eprintln!(
            "runq: resuming — {} completed point(s) already in {out_path}",
            skip.len()
        );
    }
    let cancel = CancelToken::new();
    let mut meter = ProgressMeter::new();
    let outcome = run_batch(
        &batch.jobs,
        cores,
        &cancel,
        &noc_network::NetworkRunner,
        &skip,
        &mut sink,
        |done, remaining, rec: &PointRecord| {
            let p = meter.tick();
            let pace = match p.eta_secs((remaining - done) as u64) {
                Some(eta) if p.per_sec > 0.0 => {
                    format!(" [{:.2} pt/s, eta {}]", p.per_sec, fmt_eta(eta))
                }
                _ => String::new(),
            };
            eprintln!(
                "[{done:>4}/{remaining}] {} seed {} load {:.3} -> {}{}{pace}",
                rec.job,
                rec.seed,
                rec.load,
                rec.latency
                    .map_or_else(|| "no sample".into(), |l| format!("{l:.1} cycles")),
                if rec.saturated { " (saturated)" } else { "" },
            );
        },
    );
    sink.footer(&format!(
        "\"completed\": {}, \"skipped\": {}, \"cancelled\": {}, {}",
        outcome.completed,
        outcome.skipped,
        outcome.cancelled,
        meta::provenance_fields("runq")
    ))
    .map_err(|e| format!("writing footer: {e}"))?;
    println!(
        "runq: {}/{} point(s) completed this run ({} resumed from {out_path}){}",
        outcome.completed,
        outcome.total,
        outcome.skipped,
        if outcome.cancelled {
            " — batch cancelled; rerun to resume"
        } else {
            ""
        }
    );
    Ok(())
}
