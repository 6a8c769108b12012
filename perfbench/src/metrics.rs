//! The metric vocabulary: the single list `BENCHMARK.json` mirrors (a
//! test keeps the two in step).

/// An end-to-end metric: lower is better for every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "ns_per_flit_hop",
        unit: "ns",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.1,
    },
];

/// Per-layer metrics `(name, unit, better)`, reported by every traced run
/// of every workload (0 where the workload does not exercise the layer).
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("runqueue.points", "count", "higher"),
    ("runqueue.idle_frac", "ratio", "lower"),
    ("runqueue.sink_us_per_record", "us", "lower"),
    ("network.setup_ms_per_point", "ms", "lower"),
    ("network.rss_kb_per_node", "kB", "lower"),
    ("sim.cycles", "count", "lower"),
    ("sim.active_frac", "ratio", "lower"),
    ("sim.fast_forwarded", "count", "higher"),
    ("sim.delivery_ns_per_cycle", "ns", "lower"),
    ("sim.sources_ns_per_cycle", "ns", "lower"),
    ("sim.stats_ns_per_cycle", "ns", "lower"),
    ("router.ticks", "count", "lower"),
    ("router.flit_hops", "count", "lower"),
    ("router.hops_per_tick", "ratio", "higher"),
    ("router.tick_ns", "ns", "lower"),
    ("router.tick_ns.wh", "ns", "lower"),
    ("router.tick_ns.vc", "ns", "lower"),
    ("router.tick_ns.specvc", "ns", "lower"),
    ("router.share", "ratio", "lower"),
    ("router.va_grants", "count", "higher"),
    ("router.sa_grants", "count", "higher"),
    ("router.spec_requests", "count", "higher"),
    ("router.spec_hits", "count", "higher"),
    ("router.spec_wasted", "count", "lower"),
    ("router.spec_accuracy", "ratio", "higher"),
    ("router.credits_sent", "count", "higher"),
    ("arbitration.separable_ns", "ns", "lower"),
    ("arbitration.matrix_ns", "ns", "lower"),
    ("arbitration.round_robin_ns", "ns", "lower"),
    ("shard.barrier_share", "ratio", "lower"),
    ("shard.barrier_ns_per_cycle", "ns", "lower"),
    ("shard.waits_per_cycle", "ratio", "lower"),
    ("shard.commit_ns_per_cycle", "ns", "lower"),
    ("shard.work_imbalance", "ratio", "lower"),
    ("shard.rebalances", "count", "lower"),
    ("shard.migrated_nodes", "count", "lower"),
    ("fault.dropped_flits", "count", "lower"),
    ("fault.delivered_ratio", "ratio", "higher"),
    ("fault.unreachable_pairs", "count", "lower"),
    ("telemetry.snapshots", "count", "lower"),
    ("telemetry.flows", "count", "higher"),
    ("telemetry.overhead_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    // Beyond the layer table: span self times and batch throughput.
    ("runqueue.self_ms_per_point", "ms", "lower"),
    ("sim.run_ms_per_point", "ms", "lower"),
    ("runqueue.points_per_s", "1/s", "higher"),
    ("runqueue.wall_s", "s", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Workload;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(a)) => a,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_vocabulary() {
        let doc = benchmark_json();
        let e2e = list(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Json::str), Some("lower"));
            assert_eq!(j.get("bound").and_then(Json::num), Some(m.bound));
        }
        let layers = list(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::str), Some(name));
            assert_eq!(j.get("unit").and_then(Json::str), Some(unit));
            assert_eq!(j.get("better").and_then(Json::str), Some(better));
        }
        for w in list(&doc, "workloads") {
            let name = w.get("name").and_then(Json::str).expect("workload name");
            assert!(Workload::parse(name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
