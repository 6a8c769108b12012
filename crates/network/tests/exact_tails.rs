//! Tail latencies are exact: the run's and every flow's p50/p95/p99 are
//! nearest-rank samples of the tagged sample itself, checked here
//! against a brute-force sort of the same samples, and a run that never
//! drains its sample reports its tail and how many tagged packets it
//! censored instead of clipping either.

use noc_network::{FlowStats, Latencies, Network, NetworkConfig, RouterKind, TrafficPattern};
use proptest::prelude::*;

/// The oracle's p50/p95/p99 of ascending `sorted`: the samples at the
/// 1-based nearest ranks ⌈pct·n / 100⌉, computed in integers.
fn oracle(sorted: &[u64]) -> Option<[u64; 3]> {
    let n = sorted.len();
    (n > 0).then(|| [50, 95, 99].map(|pct: usize| sorted[(pct * n).div_ceil(100) - 1]))
}

/// The latencies in `log` of one `(src, dst)` flow, or of every sample
/// when `flow` is `None`, ascending.
fn sorted_latencies(log: &[(u32, u32, u64)], flow: Option<(u32, u32)>) -> Vec<u64> {
    let mut v: Vec<u64> = log
        .iter()
        .filter(|&&(s, d, _)| flow.is_none_or(|f| f == (s, d)))
        .map(|s| s.2)
        .collect();
    v.sort_unstable();
    v
}

/// The latency range of one case: narrow ones make whole flows tie (so
/// the worst flow's tie-break matters), the wide one makes ties rare.
fn span() -> impl Strategy<Value = u64> {
    prop_oneof![Just(2u64), Just(5u64), Just(100_000u64)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Up to 300 samples between at most 4 nodes: the run-level and the
    /// per-flow quantiles, counts, means, flow count and worst flow all
    /// match the brute-force answer.
    #[test]
    fn quantiles_match_a_brute_force_sort(
        nodes in 1u32..5,
        span in span(),
        raw in proptest::collection::vec((0u32..4, 0u32..4, 0u64..100_000), 0..=300),
    ) {
        let log: Vec<(u32, u32, u64)> =
            raw.iter().map(|&(s, d, l)| (s % nodes, d % nodes, l % span)).collect();

        let run = Latencies::new(log.iter().map(|s| s.2).collect());
        let p = run.percentiles();
        let all = oracle(&sorted_latencies(&log, None));
        prop_assert_eq!([p.p50, p.p95, p.p99], [0, 1, 2].map(|i| all.map(|q| q[i])));
        prop_assert_eq!(run.len(), log.len());

        let flows = FlowStats::new(nodes as usize, log.clone());
        prop_assert_eq!(flows.samples(), log.len() as u64);
        let mut measured = 0;
        // (p99, p95, p50) and (src, dst) of the worst flow so far.
        let mut worst: Option<([u64; 3], (u32, u32))> = None;
        for src in 0..nodes {
            for dst in 0..nodes {
                let lat = sorted_latencies(&log, Some((src, dst)));
                let (s, d) = (src as usize, dst as usize);
                let expect = oracle(&lat);
                prop_assert_eq!(flows.percentiles(s, d).map(|p| [p.p50, p.p95, p.p99]), expect);
                prop_assert_eq!(flows.flow_samples(s, d), lat.len() as u64);
                let mean = (!lat.is_empty())
                    .then(|| lat.iter().sum::<u64>() as f64 / lat.len() as f64);
                prop_assert_eq!(flows.mean(s, d).map(f64::to_bits), mean.map(f64::to_bits));
                if let Some([p50, p95, p99]) = expect {
                    measured += 1;
                    // Flows are visited in ascending (src, dst) order, so
                    // only a strictly worse one displaces the incumbent.
                    if worst.is_none_or(|(w, _)| [p99, p95, p50] > w) {
                        worst = Some(([p99, p95, p50], (src, dst)));
                    }
                }
            }
        }
        prop_assert_eq!(flows.flows(), measured);
        prop_assert_eq!(
            flows.worst().map(|(s, d, p)| ([p.p99, p.p95, p.p50], (s, d))),
            worst
        );
    }
}

#[test]
fn empty_log_has_no_quantiles() {
    let p = Latencies::new(Vec::new()).percentiles();
    assert_eq!((p.p50, p.p95, p.p99), (None, None, None));
    let flows = FlowStats::new(4, Vec::new());
    assert_eq!((flows.flows(), flows.samples()), (0, 0));
    assert_eq!(flows.percentiles(1, 2), None);
    assert_eq!(flows.mean(1, 2), None);
    assert_eq!(flows.worst(), None);
}

/// Far past hotspot saturation, tagged packets wait at their sources
/// for thousands of cycles. The tail is still exact — there is no bucket
/// range for it to fall out of — and the run states how many tagged
/// packets it never saw finish.
#[test]
fn saturated_run_reports_an_exact_tail_and_its_censoring() {
    let cfg = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 4 })
        .with_pattern(TrafficPattern::Hotspot {
            hotspot: 5,
            hotness: 0.5,
        })
        .with_injection(0.6)
        .with_warmup(100)
        .with_sample(1_000)
        .with_max_cycles(12_000)
        .with_telemetry(1024);
    let run = Network::new(cfg).run();
    assert!(run.saturated, "the point must be past saturation");
    assert!(run.censored > 0, "tagged packets were still in flight");
    assert_eq!(run.histogram.len() as u64, run.stats.count());
    let p = run.histogram.percentiles();
    let [p50, p95, p99] = [p.p50, p.p95, p.p99].map(|q| q.expect("samples were delivered"));
    assert!(p50 <= p95 && p95 <= p99, "{p:?}");
    assert!(run.stats.min() <= Some(p50) && Some(p99) <= run.stats.max());
    assert!(p99 > 5_000, "a tail beyond the old 5000-cycle range: {p:?}");
    // Every flow's p99 at or below `x` puts the run's p99 at or below
    // `x` too, so the worst flow's p99 is at least the run's: far past
    // the 1024 cycles at which per-flow quantiles used to saturate.
    let flows = run.flow_stats.as_ref().expect("telemetry on");
    assert_eq!(flows.samples(), run.stats.count());
    let (_, _, worst) = flows.worst().expect("flows measured");
    assert!(worst.p99 >= p99, "worst flow {worst:?} vs run {p:?}");
}

/// A drained run keeps every tagged sample and censors none.
#[test]
fn drained_run_keeps_the_whole_sample_and_censors_nothing() {
    let cfg = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 4 })
        .with_injection(0.2)
        .with_warmup(100)
        .with_sample(400)
        .with_max_cycles(40_000);
    let run = Network::new(cfg).run();
    assert!(!run.saturated);
    assert_eq!(run.censored, 0);
    assert_eq!(run.histogram.len(), 400);
    assert_eq!(run.stats.count(), 400);
}
