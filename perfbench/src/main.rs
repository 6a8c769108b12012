//! The repository's benchmark: three workloads driven through the public
//! batch path (`runqueue::run_batch` + `noc_network::NetworkRunner`), every
//! point checked against a reference, end-to-end metrics from untraced
//! runs and per-layer metrics from a separate traced pass.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench compare A.jsonl B.jsonl
//! perfbench record-reference
//! ```
//!
//! Run it from the repository root (it writes under `perfbench/out/`):
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload fig13`.
//! The last line of a run is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/NOTES.md`.

mod batch;
mod check;
mod compare;
mod host;
mod json;
mod metrics;
mod stats;
mod trace;
mod workload;

use batch::{Timed, OUT_DIR};
use check::{check_batch, Reference, RECORDED};
use metrics::{END_TO_END, PER_LAYER};
use noc_network::{Network, NetworkConfig, NetworkRunner};
use stats::Summary;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};
use trace::{DirectRunner, Tracer};
use workload::{point_config, points, Job, Workload, CORES, DEFAULT_SEED, SHARDS};

const USAGE: &str = "usage: perfbench --workload fig13|mesh32-sharded|hotspot-faulted \
[--seed N] [--seconds S] [--trace 0|1]
       perfbench compare A.jsonl B.jsonl
       perfbench record-reference";

/// Timed batches a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Traced rounds (untraced, traced and telemetry-off batch) at least.
const MIN_ROUNDS: usize = 2;
/// Set-up passes after each timed batch: at least this many, more while
/// a tenth of the batch's wall time lasts.
const SETUPS_PER_BATCH: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an integer".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes an integer".to_string())?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_main(&args[1..]),
        Some("record-reference") => record_reference(),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    }
}

/// Points checked and failures found.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn add(&mut self, (attempted, failures): (u64, Vec<String>)) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }
}

/// One reported number and the samples behind it.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    summary: Option<Summary>,
}

impl Reported {
    /// `"name": {"value": v, "unit": u}`, plus the sample figures when
    /// `samples` is set and there are any.
    fn json(&self, samples: bool) -> String {
        let extra = match (samples, self.summary) {
            (true, Some(s)) => format!(
                ", \"samples\": {}, \"q1\": {}, \"q3\": {}",
                s.n,
                json::number(s.q1),
                json::number(s.q3)
            ),
            _ => String::new(),
        };
        format!(
            "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
            json::string(self.name),
            json::number(self.value),
            json::string(self.unit)
        )
    }
}

/// What a pass measured: the `BENCHMARK.json` metrics, and figures reported
/// beside them (printed and kept in `runs.jsonl`, not in the last line).
struct Measured {
    metrics: Vec<Reported>,
    beside: Vec<Reported>,
}

fn run(args: &Args) -> Result<(), String> {
    let jobs = args.workload.jobs(args.seed);
    let host = host::Host::describe();
    println!(
        "perfbench {} · seed {} · {} points per batch · {CORES} cores · {SHARDS} shards · {} pass",
        args.workload.name(),
        args.seed,
        points(&jobs).len(),
        if args.trace { "traced" } else { "untraced" }
    );
    println!("host: {{{}}}", host.json_fields());
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let measured = if args.trace {
        per_layer(args, &jobs, &mut checks, &mut notes)?
    } else {
        end_to_end(args, &jobs, &mut checks, &mut notes)?
    };
    let all = || measured.metrics.iter().chain(&measured.beside);
    for r in all() {
        let samples = r.summary.map_or_else(
            || "1 sample".to_string(),
            |s| format!("median of {} (q1 {:.6}, q3 {:.6})", s.n, s.q1, s.q3),
        );
        println!("{:<34} {:>16.6} {:<6} {samples}", r.name, r.value, r.unit);
    }
    for n in &notes {
        println!("{n}");
    }
    let failed = checks.failures.len() as u64;
    for f in checks.failures.iter().take(10) {
        eprintln!("FAILED {f}");
    }
    println!(
        "fail_ratio {failed}/{} = {}",
        checks.attempted,
        failed as f64 / checks.attempted.max(1) as f64
    );
    let correct = failed == 0;
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"points\": {}, \"cores\": {CORES}, \"shards\": {SHARDS}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"notes\": [{}], \"host\": {{{}}}, \"metrics\": {{{}}}}}",
        json::string(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        points(&jobs).len(),
        checks.attempted,
        notes.iter().map(|n| json::string(n)).collect::<Vec<_>>().join(", "),
        host.json_fields(),
        all().map(|r| r.json(true)).collect::<Vec<_>>().join(", ")
    );
    append_line(&format!("{OUT_DIR}/runs.jsonl"), &line)?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        checks.attempted,
        measured
            .metrics
            .iter()
            .map(|r| r.json(false))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

/// A field of `/proc/self/status`, in kB.
fn proc_status_kb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// The reference a run checks against: recorded values at the default
/// seed, an untimed cycle-driven run at any other.
fn reference_for(workload: Workload, jobs: &[Job], seed: u64) -> Result<Reference, String> {
    if seed == DEFAULT_SEED {
        Reference::parse(RECORDED, workload)
    } else {
        Ok(Reference::compute(jobs))
    }
}

/// Figure 13 against the paper, from one batch's records: the mean
/// absolute errors of zero-load latency and saturation, and how many of
/// the orderings `tests/figure_shapes.rs` asserts are broken. All three
/// are deterministic for a seed; a speed-only change must not move them.
fn fig13_accuracy(
    jobs: &[Job],
    records: &[runqueue::PointRecord],
    notes: &mut Vec<String>,
) -> Vec<Reported> {
    let curves = check::fig13_curves(jobs, records);
    let broken = check::fig13_shape_failures(&curves);
    let (zl, sat) = check::fig13_paper_error(&curves);
    let series: Vec<String> = jobs
        .iter()
        .zip(&curves)
        .zip(check::PAPER_FIG13)
        .map(|((j, c), p)| {
            format!(
                "{} {:.2}/{} cycles, {:.2}/{:.2}",
                j.series, c.0, p.0, c.1, p.1
            )
        })
        .collect();
    notes.push(format!(
        "Figure 13 zero-load latency and saturation, simulated/paper: {}",
        series.join("; ")
    ));
    for b in &broken {
        notes.push(format!("Figure 13 ordering broken at this seed: {b}"));
    }
    let fixed = |name, unit, value| Reported {
        name,
        unit,
        value,
        summary: None,
    };
    vec![
        fixed("paper_zero_load_err_cycles", "cycles", zl),
        fixed("paper_saturation_err", "ratio", sat),
        fixed("paper_shape_broken", "count", broken.len() as f64),
    ]
}

/// Σ host time of `Network::try_new` over `configs`, one sample per
/// pass: at least `min` passes, more while `budget` lasts.
fn setup_samples(configs: &[NetworkConfig], min: usize, budget: Duration) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || start.elapsed() < budget {
        let mut total = Duration::ZERO;
        for cfg in configs {
            let cfg = cfg.clone();
            let t = Instant::now();
            let net = Network::try_new(cfg);
            total += t.elapsed();
            drop(black_box(net));
        }
        samples.push(total.as_secs_f64());
    }
    samples
}

fn end_to_end(
    args: &Args,
    jobs: &[Job],
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<Measured, String> {
    let w = args.workload;
    let runner = Timed::new(NetworkRunner);
    // The process has done nothing else yet, so after one batch its
    // high-water mark is the peak RSS of running the workload once.
    let first = batch::run(w, jobs, &runner, None)?;
    let peak_rss_mb = proc_status_kb("VmHWM")? / 1024.0;
    let reference = reference_for(w, jobs, args.seed)?;
    checks.add(check_batch(jobs, &reference, &first.records));
    let beside = if w == Workload::Fig13 {
        fig13_accuracy(jobs, &first.records, notes)
    } else {
        Vec::new()
    };
    let configs: Vec<NetworkConfig> = points(jobs)
        .iter()
        .map(|p| point_config(&jobs[p.job], p.load))
        .collect();
    let hops = reference.flit_hops(jobs) as f64;
    let (mut walls, mut per_hop, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while walls.len() < MIN_REPS || Instant::now() < deadline {
        let b = batch::run(w, jobs, &runner, None)?;
        checks.add(check_batch(jobs, &reference, &b.records));
        walls.push(b.wall.as_secs_f64());
        per_hop.push(b.point_time.as_nanos() as f64 / hops.max(1.0));
        // Set-up passes spread over the run, as the batches are, so both
        // see the same host states.
        setup.extend(setup_samples(&configs, SETUPS_PER_BATCH, b.wall / 10));
    }
    let (walls, per_hop, setup) = (
        Summary::of(&walls),
        Summary::of(&per_hop),
        Summary::of(&setup),
    );
    let values = [
        (walls.median, Some(walls)),
        (per_hop.median, Some(per_hop)),
        (setup.median, Some(setup)),
        (peak_rss_mb, None),
    ];
    notes.push(format!(
        "peak_rss_mb is VmHWM after one batch in a fresh process (1 sample); ns_per_flit_hop divides by {hops} flit-hops per batch"
    ));
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, summary))| Reported {
            name: m.name,
            unit: m.unit,
            value,
            summary,
        })
        .collect();
    Ok(Measured { metrics, beside })
}

/// Resident kB per simulated node of every point's network, built and
/// held together before anything else runs.
fn rss_kb_per_node(jobs: &[Job]) -> Result<f64, String> {
    let before = proc_status_kb("VmRSS")?;
    let nets: Vec<Network> = points(jobs)
        .iter()
        .filter_map(|p| Network::try_new(point_config(&jobs[p.job], p.load)).ok())
        .collect();
    let after = proc_status_kb("VmRSS")?;
    let nodes: usize = nets.iter().map(|n| n.config().mesh.nodes()).sum();
    drop(nets);
    Ok((after - before) / nodes.max(1) as f64)
}

fn per_layer(
    args: &Args,
    jobs: &[Job],
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<Measured, String> {
    let w = args.workload;
    let rss_per_node = rss_kb_per_node(jobs)?;
    let reference = reference_for(w, jobs, args.seed)?;
    let hops = reference.flit_hops(jobs) as f64;
    let tracer = Tracer::new();
    let plain = Timed::new(NetworkRunner);
    let traced = Timed::new(DirectRunner::traced(&tracer));
    let untelemetered = Timed::new(DirectRunner::without_telemetry());
    let warm = batch::run(w, jobs, &plain, None)?;
    checks.add(check_batch(jobs, &reference, &warm.records));
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let (mut plain_walls, mut traced_walls, mut bare_walls) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        let b = batch::run(w, jobs, &plain, None)?;
        checks.add(check_batch(jobs, &reference, &b.records));
        plain_walls.push(b.wall.as_secs_f64());

        let first = tracer.len();
        let b = batch::run(w, jobs, &traced, Some(&tracer))?;
        checks.add(check_batch(jobs, &reference, &b.records));
        let points = traced.inner().take();
        let m = trace::layer_metrics(
            &tracer.spans_from(first),
            first,
            &points,
            b.wall.as_secs_f64(),
        );
        if m["router.flit_hops"] != hops {
            checks.failures.push(format!(
                "traced batch switched {} flits, reference {hops}",
                m["router.flit_hops"]
            ));
        }
        rounds.push(m);
        traced_walls.push(b.wall.as_secs_f64());

        let b = batch::run(w, jobs, &untelemetered, None)?;
        checks.add(check_batch(jobs, &reference, &b.records));
        bare_walls.push(b.wall.as_secs_f64());
    }
    let mut values: BTreeMap<&'static str, (f64, Option<Summary>)> = BTreeMap::new();
    for name in rounds[0].keys() {
        let s = Summary::of(&rounds.iter().map(|r| r[name]).collect::<Vec<_>>());
        values.insert(name, (s.median, Some(s)));
    }
    values.insert("network.rss_kb_per_node", (rss_per_node, None));
    for (name, ns) in trace::arbitration_probe() {
        values.insert(name, (ns, None));
    }
    let plain_wall = stats::median(&plain_walls);
    values.insert(
        "telemetry.overhead_frac",
        (plain_wall / stats::median(&bare_walls) - 1.0, None),
    );
    values.insert(
        "trace.overhead_frac",
        (stats::median(&traced_walls) / plain_wall - 1.0, None),
    );

    let path = format!("{OUT_DIR}/spans-{}-{}.json", w.name(), args.seed);
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    notes.push(format!(
        "spans written to {path} (Chrome trace-event format)"
    ));
    let all = tracer.spans_from(0);
    let selves = trace::self_times(&all, 0);
    for name in [
        "run_batch",
        "run_point",
        "Network::try_new",
        "Network::run",
        "ResultSink::record",
    ] {
        let (mut n, mut dur, mut own) = (0u64, 0u64, 0u64);
        for (s, o) in all.iter().zip(&selves).filter(|(s, _)| s.name == name) {
            n += 1;
            dur += s.end - s.start;
            own += o;
        }
        notes.push(format!(
            "span {name:<20} {n:>6} spans {:>12.3} ms total {:>12.3} ms self",
            dur as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let (value, summary) = values
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("per-layer metric {name} was not derived"));
            Reported {
                name,
                unit,
                value,
                summary,
            }
        })
        .collect();
    Ok(Measured {
        metrics,
        beside: Vec::new(),
    })
}

fn compare_main(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (ra, rb) = (compare::load(&read(a)?)?, compare::load(&read(b)?)?);
    print!("{}", compare::report(&ra, &rb));
    Ok(())
}

/// Records the reference every run at the default seed checks against:
/// cycle-driven results of every workload point.
fn record_reference() -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference/seed-24301.tsv");
    let mut text = String::from(
        "# Cycle-driven results of every benchmark point at seed 24301, written by\n\
         # `perfbench record-reference`. Columns: workload, series, load, mean\n\
         # latency (- if none), accepted, saturated, cycles, dropped flits,\n\
         # dropped packets, unreachable pairs, flit-hops.\n",
    );
    for w in Workload::ALL {
        let jobs = w.jobs(DEFAULT_SEED);
        let r = Reference::compute(&jobs);
        let missing = points(&jobs)
            .iter()
            .filter(|p| r.get(&jobs[p.job].series, p.load).is_none())
            .count();
        if missing > 0 {
            return Err(format!("{}: {missing} reference points panicked", w.name()));
        }
        text.push_str(&r.to_lines(w));
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}
