//! Compare mode: two result sets, one verdict per workload and
//! end-to-end metric.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Untraced runs of a result set: workload -> metric -> values, in file
/// order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a result set: one run per line, as `perfbench/out/runs.jsonl`
/// accumulates them.
pub fn load(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let run = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if run.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::num) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// How a metric moved from result set A (the parent) to B (the change).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better beyond A's own spread and won at least 9 pairs in 10.
    Improved,
    /// B's median is not worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// One side's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one lower-is-better metric, and the share of pairs
/// (A's i-th run against B's i-th run) that B won.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| y < x).count();
    let share = wins as f64 / pairs as f64;
    let max_b = b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min_a = a.iter().copied().fold(f64::INFINITY, f64::min);
    let v = if sa.spread() > metric.bound || sb.spread() > metric.bound {
        if max_b < min_a {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if share >= 0.9 && sa.median - sb.median > sa.q3 - sa.q1 {
        Verdict::Improved
    } else if sb.median > sa.median * (1.0 + metric.bound) {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (v, share)
}

/// The comparison table of result sets `a` and `b`.
pub fn report(a: &Runs, b: &Runs) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<16} {:>36} {:>36} {:>7}  verdict (bound)",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B wins"
    );
    for (workload, ma) in a {
        let Some(mb) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<16} only in A");
            continue;
        };
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(metric.name), mb.get(metric.name)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Summary::of(va), Summary::of(vb));
            let (v, share) = verdict(metric, va, vb);
            let fmt = |s: Summary| format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, s.n);
            let _ = writeln!(
                out,
                "{workload:<16} {:<16} {:>36} {:>36} {:>6.0}%  {} ({})",
                metric.name,
                fmt(sa),
                fmt(sb),
                share * 100.0,
                v.label(),
                metric.bound
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(out, "{workload:<16} only in B");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: EndToEnd = EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.1,
    };

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];
        let faster: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&WALL, &a, &faster), (Verdict::Improved, 1.0));
        assert_eq!(verdict(&WALL, &a, &slower).0, Verdict::Worse);
        assert_eq!(verdict(&WALL, &a, &same).0, Verdict::WithinBound);
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0];
        assert_eq!(verdict(&WALL, &a, &noisy).0, Verdict::Unresolved);
        // A wide spread still resolves when every run of B beats every run of A.
        let wide_fast: Vec<f64> = noisy.iter().map(|v| v * 0.3).collect();
        assert_eq!(verdict(&WALL, &a, &wide_fast).0, Verdict::Improved);
    }

    #[test]
    fn loads_untraced_runs_only() {
        let text = "\
{\"workload\": \"fig13\", \"trace\": 0, \"metrics\": {\"wall_s\": {\"value\": 2.5, \"unit\": \"s\"}}}
{\"workload\": \"fig13\", \"trace\": 1, \"metrics\": {\"router.ticks\": {\"value\": 9, \"unit\": \"count\"}}}

{\"workload\": \"fig13\", \"trace\": 0, \"metrics\": {\"wall_s\": {\"value\": 2.7, \"unit\": \"s\"}}}
";
        let runs = load(text).expect("loads");
        assert_eq!(runs["fig13"]["wall_s"], vec![2.5, 2.7]);
        assert!(!runs["fig13"].contains_key("router.ticks"));
        let table = report(&runs, &runs);
        assert!(table.contains("within bound"), "{table}");
        assert!(load("{\"trace\": 0}").is_err());
    }
}
