//! Correctness: every point's simulated results against a reference, and
//! Figure 13's shape and accuracy against the paper.

use crate::workload::{point_config, points, Job, Workload, CORES};
use noc_network::config::EngineKind;
use noc_network::sweep::saturation_throughput;
use noc_network::{LoadPoint, Network, RunResult};
use runqueue::{run_tasks, CancelToken, PointRecord, Task};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The compared simulated results of one point. Latency quantiles are
/// deliberately left out: their histogram is due to change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Mean tagged-packet latency, if the sample completed.
    pub latency: Option<f64>,
    /// Accepted throughput, fraction of capacity.
    pub accepted: f64,
    /// Saturation flag (`LoadPoint` semantics).
    pub saturated: bool,
    /// Cycles simulated.
    pub cycles: u64,
    /// Flits dropped by the fault layer.
    pub dropped_flits: u64,
    /// Packets dropped by the fault layer.
    pub dropped_packets: u64,
    /// Pairs left unroutable at the end of the run.
    pub unreachable_pairs: u64,
}

impl Outcome {
    /// The outcome a batch record carries.
    pub fn of_record(rec: &PointRecord) -> Outcome {
        Outcome {
            latency: rec.latency,
            accepted: rec.accepted,
            saturated: rec.saturated,
            cycles: rec.cycles,
            dropped_flits: rec.node_drops.iter().flat_map(|d| &d.flits).sum(),
            dropped_packets: rec.node_drops.iter().flat_map(|d| &d.packets).sum(),
            unreachable_pairs: rec.unreachable_pairs,
        }
    }

    /// The outcome of a direct run, with its flit-hop count.
    pub fn of_run(r: RunResult) -> (Outcome, u64) {
        let (cycles, hops) = (r.cycles, r.router_stats.flits_switched);
        let (dropped_flits, dropped_packets) = (r.dropped_flits, r.dropped_packets);
        let unreachable_pairs = r.unreachable_pairs;
        let p = LoadPoint::from(r);
        let outcome = Outcome {
            latency: p.latency,
            accepted: p.accepted,
            saturated: p.saturated,
            cycles,
            dropped_flits,
            dropped_packets,
            unreachable_pairs,
        };
        (outcome, hops)
    }

    /// Bitwise equality: every engine is bit-identical by contract.
    fn same(&self, other: &Outcome) -> bool {
        self.latency.map(f64::to_bits) == other.latency.map(f64::to_bits)
            && self.accepted.to_bits() == other.accepted.to_bits()
            && (self.saturated, self.cycles, self.dropped_flits)
                == (other.saturated, other.cycles, other.dropped_flits)
            && (self.dropped_packets, self.unreachable_pairs)
                == (other.dropped_packets, other.unreachable_pairs)
    }
}

/// Reference results of one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefPoint {
    /// Expected outcome.
    pub outcome: Outcome,
    /// Flits switched over the run (the `ns_per_flit_hop` denominator).
    pub flit_hops: u64,
}

/// Reference results of one workload at one seed, keyed by series and
/// exact load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    points: BTreeMap<(String, u64), RefPoint>,
}

/// Reference values recorded from the cycle-driven engine at the
/// default seed when the benchmark was defined.
pub const RECORDED: &str = include_str!("../reference/seed-24301.tsv");

impl Reference {
    /// The point of `series` at `load`.
    pub fn get(&self, series: &str, load: f64) -> Option<&RefPoint> {
        self.points.get(&(series.to_string(), load.to_bits()))
    }

    /// Inserts a point.
    pub fn insert(&mut self, series: &str, load: f64, point: RefPoint) {
        self.points
            .insert((series.to_string(), load.to_bits()), point);
    }

    /// Flits switched by every point of `jobs` (one batch's work).
    pub fn flit_hops(&self, jobs: &[Job]) -> u64 {
        points(jobs)
            .iter()
            .filter_map(|p| self.get(&jobs[p.job].series, p.load))
            .map(|r| r.flit_hops)
            .sum()
    }

    /// Parses the recorded lines of `workload` from `text`.
    pub fn parse(text: &str, workload: Workload) -> Result<Reference, String> {
        let mut r = Reference::default();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("reference line {}: {line}", n + 1);
            if f.len() != 11 {
                return Err(bad());
            }
            if f[0] != workload.name() {
                continue;
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let outcome = Outcome {
                latency: match f[3] {
                    "-" => None,
                    v => Some(v.parse().map_err(|_| bad())?),
                },
                accepted: f[4].parse().map_err(|_| bad())?,
                saturated: f[5].parse().map_err(|_| bad())?,
                cycles: num(f[6])?,
                dropped_flits: num(f[7])?,
                dropped_packets: num(f[8])?,
                unreachable_pairs: num(f[9])?,
            };
            let load: f64 = f[2].parse().map_err(|_| bad())?;
            let point = RefPoint {
                outcome,
                flit_hops: num(f[10])?,
            };
            r.insert(f[1], load, point);
        }
        Ok(r)
    }

    /// The reference as recorded lines of `workload`.
    pub fn to_lines(&self, workload: Workload) -> String {
        let mut s = String::new();
        for ((series, load_bits), p) in &self.points {
            let o = &p.outcome;
            let latency = o
                .latency
                .map_or_else(|| "-".to_string(), |l| format!("{l:?}"));
            let _ = writeln!(
                s,
                "{}\t{series}\t{:?}\t{latency}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}",
                workload.name(),
                f64::from_bits(*load_bits),
                o.accepted,
                o.saturated,
                o.cycles,
                o.dropped_flits,
                o.dropped_packets,
                o.unreachable_pairs,
                p.flit_hops
            );
        }
        s
    }

    /// Runs every distinct point of `jobs` on the cycle-driven engine
    /// (untimed), `CORES` points at a time. A point that panics is left
    /// out, so every batch point that needs it fails.
    pub fn compute(jobs: &[Job]) -> Reference {
        // Jobs that differ only in engine share a series: run it once.
        let mut distinct: BTreeMap<(&str, u64), usize> = BTreeMap::new();
        for p in points(jobs) {
            distinct
                .entry((jobs[p.job].series.as_str(), p.load.to_bits()))
                .or_insert(p.job);
        }
        let tasks = distinct
            .iter()
            .map(|(&(_, load_bits), &job)| {
                let load = f64::from_bits(load_bits);
                Task {
                    item: (job, load),
                    width: 1,
                    priority: [0.0, load],
                }
            })
            .collect();
        let results = run_tasks(
            tasks,
            CORES,
            &CancelToken::new(),
            |(job, load): (usize, f64), _: &CancelToken| {
                let cfg = point_config(&jobs[job], load).with_engine(EngineKind::CycleDriven);
                catch_unwind(AssertUnwindSafe(|| {
                    Outcome::of_run(Network::new(cfg).run())
                }))
                .ok()
            },
            |_, _| {},
        );
        let mut r = Reference::default();
        for ((&(series, load_bits), _), res) in distinct.iter().zip(results) {
            if let Some(Some((outcome, flit_hops))) = res {
                let point = RefPoint { outcome, flit_hops };
                r.insert(series, f64::from_bits(load_bits), point);
            }
        }
        r
    }
}

/// Checks one batch: every point of `jobs` must have a record whose
/// outcome equals the reference bit for bit. Returns the points checked
/// and a description of each failure (a missing record means the point
/// panicked or was cancelled).
pub fn check_batch(
    jobs: &[Job],
    reference: &Reference,
    records: &[PointRecord],
) -> (u64, Vec<String>) {
    let expected = points(jobs);
    let mut failures = Vec::new();
    for p in &expected {
        let job = &jobs[p.job];
        let what = format!("{} @ {}", job.spec.name, p.load);
        let rec = records
            .iter()
            .find(|r| r.job == job.spec.name && r.load.to_bits() == p.load.to_bits());
        match (rec, reference.get(&job.series, p.load)) {
            (None, _) => failures.push(format!("{what}: no record (panicked or cancelled)")),
            (_, None) => failures.push(format!("{what}: no reference")),
            (Some(rec), Some(want)) => {
                let got = Outcome::of_record(rec);
                if !got.same(&want.outcome) {
                    failures.push(format!("{what}: got {got:?}, reference {:?}", want.outcome));
                }
            }
        }
    }
    (expected.len() as u64, failures)
}

/// Figure 13's values from the paper: zero-load latency (cycles) and
/// saturation throughput (fraction of capacity) of WH, VC and specVC.
pub const PAPER_FIG13: [(f64, f64); 3] = [(29.0, 0.40), (36.0, 0.50), (30.0, 0.55)];

/// Zero-load latency and saturation of each Figure 13 series, in legend
/// order, as `repro-fig13` derives them (curve truncated after its first
/// saturated point; saturation at 3x zero-load latency).
pub fn fig13_curves(jobs: &[Job], records: &[PointRecord]) -> Vec<(f64, f64)> {
    jobs.iter()
        .map(|job| {
            let mut curve: Vec<LoadPoint> = records
                .iter()
                .filter(|r| r.job == job.spec.name)
                .map(LoadPoint::from)
                .collect();
            curve.sort_by(|a, b| a.offered.total_cmp(&b.offered));
            if let Some(i) = curve.iter().position(|p| p.saturated) {
                curve.truncate(i + 1);
            }
            let zero_load = curve
                .iter()
                .find(|p| !p.saturated)
                .and_then(|p| p.latency)
                .unwrap_or(f64::INFINITY);
            (zero_load, saturation_throughput(&curve, 3.0))
        })
        .collect()
}

/// The orderings `tests/figure_shapes.rs` asserts for Figure 13, given
/// `(zero_load, saturation)` of WH, VC and specVC. Returns each broken
/// one.
pub fn fig13_shape_failures(curves: &[(f64, f64)]) -> Vec<String> {
    let [(wh_zl, wh_sat), (vc_zl, vc_sat), (spec_zl, spec_sat)] = curves else {
        return vec![format!("expected 3 series, got {}", curves.len())];
    };
    let mut broken = Vec::new();
    if vc_zl <= &(wh_zl + 4.0) {
        broken.push(format!(
            "VC zero-load {vc_zl:.1} must exceed WH {wh_zl:.1} + 4"
        ));
    }
    if (spec_zl - wh_zl).abs() >= 4.0 {
        broken.push(format!(
            "specVC zero-load {spec_zl:.1} must be within 4 of WH {wh_zl:.1}"
        ));
    }
    if spec_sat <= &(wh_sat + 0.01) {
        broken.push(format!(
            "specVC saturation {spec_sat:.2} must beat WH {wh_sat:.2}"
        ));
    }
    if spec_sat < vc_sat {
        broken.push(format!(
            "specVC saturation {spec_sat:.2} must match or beat VC {vc_sat:.2}"
        ));
    }
    broken
}

/// Mean absolute error against the paper's Figure 13: zero-load latency
/// in cycles and saturation in fraction of capacity.
pub fn fig13_paper_error(curves: &[(f64, f64)]) -> (f64, f64) {
    let n = PAPER_FIG13.len() as f64;
    let zl = curves
        .iter()
        .zip(PAPER_FIG13)
        .map(|(c, p)| (c.0 - p.0).abs())
        .sum::<f64>()
        / n;
    let sat = curves
        .iter()
        .zip(PAPER_FIG13)
        .map(|(c, p)| (c.1 - p.1).abs())
        .sum::<f64>()
        / n;
    (zl, sat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use runqueue::{NodeDrops, PointKey};

    fn record(job: &str, load: f64, latency: f64) -> PointRecord {
        PointRecord {
            key: PointKey::new(1, 2, load),
            job: job.into(),
            seed: 2,
            load,
            latency: Some(latency),
            accepted: load,
            saturated: false,
            cycles: 4_000,
            p50: None,
            p95: None,
            p99: None,
            unreachable_pairs: 3,
            node_drops: vec![NodeDrops {
                node: 7,
                flits: vec![5, 0],
                packets: vec![1, 0],
            }],
            flows: 0,
            flow_p50: None,
            flow_p95: None,
            flow_p99: None,
        }
    }

    fn setup() -> (Vec<Job>, Vec<PointRecord>, Reference) {
        let jobs: Vec<Job> = Workload::HotspotFaulted.jobs(9);
        let records: Vec<PointRecord> = points(&jobs)
            .iter()
            .map(|p| record(&jobs[p.job].spec.name, p.load, 50.0 + p.load))
            .collect();
        let mut reference = Reference::default();
        for (p, rec) in points(&jobs).iter().zip(&records) {
            let point = RefPoint {
                outcome: Outcome::of_record(rec),
                flit_hops: 100,
            };
            reference.insert(&jobs[p.job].series, p.load, point);
        }
        (jobs, records, reference)
    }

    #[test]
    fn matching_records_pass() {
        let (jobs, records, reference) = setup();
        let (checked, failures) = check_batch(&jobs, &reference, &records);
        assert_eq!(checked, 4);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(reference.flit_hops(&jobs), 400);
    }

    #[test]
    fn a_perturbed_reference_is_reported_as_a_failure() {
        let (jobs, records, reference) = setup();
        let series = &jobs[0].series;
        let perturbations: [fn(&mut Outcome); 6] = [
            |o| o.latency = o.latency.map(|l| f64::from_bits(l.to_bits() + 1)),
            |o| o.accepted += 1e-12,
            |o| o.saturated = !o.saturated,
            |o| o.cycles += 1,
            |o| o.dropped_packets += 1,
            |o| o.unreachable_pairs -= 1,
        ];
        for perturb in perturbations {
            let mut bad = reference.clone();
            let mut p = *bad.get(series, 0.1).expect("reference point");
            perturb(&mut p.outcome);
            bad.insert(series, 0.1, p);
            let (_, failures) = check_batch(&jobs, &bad, &records);
            // The event and the sharded job share the perturbed series.
            assert_eq!(failures.len(), 2, "{failures:?}");
        }
    }

    #[test]
    fn a_missing_record_is_a_failure() {
        let (jobs, mut records, reference) = setup();
        records.pop();
        let (checked, failures) = check_batch(&jobs, &reference, &records);
        assert_eq!((checked, failures.len()), (4, 1));
    }

    #[test]
    fn recorded_lines_round_trip() {
        let (jobs, _, reference) = setup();
        let text = reference.to_lines(Workload::HotspotFaulted);
        let back = Reference::parse(&text, Workload::HotspotFaulted).expect("parses");
        assert_eq!(back, reference);
        assert_eq!(back.flit_hops(&jobs), 400);
        let other = Reference::parse(&text, Workload::Fig13).expect("parses");
        assert_eq!(other, Reference::default());
    }

    #[test]
    fn the_recorded_reference_covers_every_workload_point() {
        for w in Workload::ALL {
            let jobs = w.jobs(crate::workload::DEFAULT_SEED);
            let r = Reference::parse(RECORDED, w).expect("recorded reference parses");
            for p in points(&jobs) {
                assert!(
                    r.get(&jobs[p.job].series, p.load).is_some(),
                    "{} {}",
                    w.name(),
                    p.load
                );
            }
        }
    }

    #[test]
    fn shape_rules_match_the_figure_shape_test() {
        let good = [(30.1, 0.5), (40.0, 0.5), (32.7, 0.6)];
        assert!(fig13_shape_failures(&good).is_empty());
        let spec_slow = [(30.1, 0.5), (40.0, 0.5), (36.0, 0.5)];
        assert_eq!(fig13_shape_failures(&spec_slow).len(), 2);
        let (zl, sat) = fig13_paper_error(&good);
        assert!((zl - (1.1 + 4.0 + 2.7) / 3.0).abs() < 1e-9);
        assert!((sat - (0.1 + 0.0 + 0.05) / 3.0).abs() < 1e-9);
    }
}
