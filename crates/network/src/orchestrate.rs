//! Orchestration glue: plugs the network simulator into the
//! [`runqueue`] batch layer.
//!
//! A batch point is `(config, seed, load)`; this module supplies the two
//! things `runqueue` is generic over — a stable configuration hash
//! ([`runqueue::JobConfig`] for [`NetworkConfig`]) and a runner that
//! turns one point into one [`runqueue::PointRecord`]
//! ([`NetworkRunner`]). Everything else (budgeting, priorities,
//! cancellation, dedup-resume, sinks) lives in `runqueue` and is shared
//! with any other workload.

use crate::config::{FaultKind, FaultTarget, NetworkConfig, RouterKind, RoutingAlgo};
use crate::sim::Network;
use crate::sweep::LoadPoint;
use crate::traffic::TrafficPattern;
use runqueue::{CancelToken, JobConfig, NodeDrops, PointKey, PointRecord, PointRunner};

/// FNV-1a, folded a word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

impl JobConfig for NetworkConfig {
    /// Hashes every field that determines a run's *results* except the
    /// seed and the offered load (the other two components of a
    /// [`PointKey`]). Deliberately excluded, so dedup-resume recognizes
    /// reruns across result-neutral knobs: the engine (all engines are
    /// bit-identical by contract), the shard-rebalancing knob (partition
    /// choice never affects results, by the same contract), phase timing
    /// and the telemetry epoch (instrumentation only — snapshots observe
    /// the run without perturbing it), and the cancellation token.
    fn config_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.mesh.radix() as u64);
        h.u64(self.mesh.dims() as u64);
        h.u64(u64::from(self.mesh.is_torus()));
        h.u64(match self.routing {
            RoutingAlgo::DimensionOrdered => 0,
            RoutingAlgo::WestFirstAdaptive => 1,
            RoutingAlgo::NegativeFirstAdaptive => 2,
        });
        match self.router {
            RouterKind::Wormhole { buffers } => {
                h.u64(1);
                h.u64(buffers as u64);
            }
            RouterKind::VirtualCutThrough { buffers } => {
                h.u64(2);
                h.u64(buffers as u64);
            }
            RouterKind::VirtualChannel {
                vcs,
                buffers_per_vc,
            } => {
                h.u64(3);
                h.u64(vcs as u64);
                h.u64(buffers_per_vc as u64);
            }
            RouterKind::SpeculativeVc {
                vcs,
                buffers_per_vc,
            } => {
                h.u64(4);
                h.u64(vcs as u64);
                h.u64(buffers_per_vc as u64);
            }
        }
        h.u64(u64::from(self.single_cycle));
        h.u64(self.link_delay);
        h.u64(self.credit_prop_delay);
        h.u64(self.credit_proc_delay);
        h.u64(u64::from(self.packet_len));
        match self.pattern {
            TrafficPattern::Uniform => h.u64(1),
            TrafficPattern::Transpose => h.u64(2),
            TrafficPattern::BitComplement => h.u64(3),
            TrafficPattern::Tornado => h.u64(4),
            TrafficPattern::NearestNeighbor => h.u64(5),
            TrafficPattern::Hotspot { hotspot, hotness } => {
                h.u64(6);
                h.u64(hotspot as u64);
                h.f64(hotness);
            }
        }
        h.u64(self.warmup_cycles);
        h.u64(self.sample_packets);
        h.u64(self.max_cycles);
        // Folded only when present, so every pre-fault hash — and any
        // record produced by one — stays valid: a healthy config keeps
        // hashing to exactly what it always did. A degraded network is
        // a different experiment, so dedup-resume must never conflate
        // it with a healthy run of the same knobs.
        if !self.faults.is_empty() {
            h.u64(0xFA17); // domain tag for the fault block
            h.u64(self.faults.len() as u64);
            for f in &self.faults {
                match f.target {
                    FaultTarget::Link { node, port } => {
                        h.u64(1);
                        h.u64(node as u64);
                        h.u64(port as u64);
                    }
                    FaultTarget::Router { node } => {
                        h.u64(2);
                        h.u64(node as u64);
                    }
                }
                match f.kind {
                    FaultKind::Dead { at } => {
                        h.u64(1);
                        h.u64(at);
                    }
                    FaultKind::Flaky {
                        period,
                        down,
                        phase,
                    } => {
                        h.u64(2);
                        h.u64(u64::from(period));
                        h.u64(u64::from(down));
                        h.u64(u64::from(phase));
                    }
                    FaultKind::Lossy { prob } => {
                        h.u64(3);
                        h.f64(prob);
                    }
                }
            }
        }
        h.0
    }
}

/// Runs one `(config, seed, load)` point as a full [`Network::run`],
/// producing the incremental record a [`runqueue::ResultSink`] streams.
///
/// The point's configuration is the job's with the load and seed
/// applied, so a one-rep job reproduces a direct [`Network::run`] of
/// each load bit for bit; `runq` and perfbench run every point of their
/// grids this way. (The `repro-*` figures run the same points without a
/// record and end each curve at its first saturated load:
/// `repro_bench::queued::queued_figure`.) A run whose cancellation
/// token fires mid-flight yields `None`: partial measurements are never
/// recorded, which is what makes an interrupted batch resumable by key
/// dedup alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkRunner;

impl PointRunner<NetworkConfig> for NetworkRunner {
    fn run_point(
        &self,
        config: &NetworkConfig,
        seed: u64,
        load: f64,
        cancel: &CancelToken,
    ) -> Option<PointRecord> {
        let cfg = config
            .clone()
            .with_injection(load)
            .with_seed(seed)
            // Telemetry observes without perturbing (it is excluded from
            // the config hash for the same reason), so every batch point
            // carries flow percentiles and per-node drop attribution.
            .with_telemetry(1024)
            .with_cancel(cancel.clone());
        let r = Network::new(cfg).run();
        if r.cancelled {
            return None;
        }
        let cycles = r.cycles;
        let pct = r.histogram.percentiles();
        let unreachable_pairs = r.unreachable_pairs;
        let flows = r.flow_stats.as_ref().map_or(0, |f| f.flows());
        let worst = r.flow_stats.as_ref().and_then(|f| f.worst());
        // Only nodes that dropped something land in the record; node
        // order (ascending) keys the entries stably across engines.
        let node_drops = r
            .node_drops
            .iter()
            .enumerate()
            .filter(|(_, d)| d.total_flits() > 0 || d.total_packets() > 0)
            .map(|(node, d)| NodeDrops {
                node: node as u32,
                flits: d.flits.to_vec(),
                packets: d.packets.to_vec(),
            })
            .collect();
        // LoadPoint owns the saturation semantics (undelivered sample or
        // collapsed throughput); reuse it so `runq` and the figures can
        // never disagree on what "saturated" means.
        let point = LoadPoint::from(r);
        Some(PointRecord {
            key: PointKey::new(config.config_hash(), seed, load),
            job: String::new(),
            seed,
            load,
            latency: point.latency,
            accepted: point.accepted,
            saturated: point.saturated,
            cycles,
            p50: pct.p50,
            p95: pct.p95,
            p99: pct.p99,
            unreachable_pairs,
            node_drops,
            flows,
            flow_p50: worst.map(|(_, _, p)| p.p50),
            flow_p95: worst.map(|(_, _, p)| p.p95),
            flow_p99: worst.map(|(_, _, p)| p.p99),
        })
    }
}

impl From<&PointRecord> for LoadPoint {
    /// A record carries a [`LoadPoint`]'s fields verbatim, so consumers
    /// that plot curves (the `repro-*` binaries) rebuild them losslessly.
    fn from(r: &PointRecord) -> Self {
        LoadPoint {
            offered: r.load,
            latency: r.latency,
            accepted: r.accepted,
            saturated: r.saturated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use crate::fault::{DropStats, DROP_REASONS};

    fn base() -> NetworkConfig {
        NetworkConfig::mesh(
            4,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_warmup(100)
        .with_sample(150)
        .with_max_cycles(8_000)
    }

    #[test]
    fn hash_is_stable_across_result_neutral_knobs() {
        let h = base().config_hash();
        assert_eq!(h, base().config_hash(), "deterministic");
        assert_eq!(
            h,
            base().with_engine(EngineKind::parallel(4)).config_hash(),
            "engines produce identical results, so the hash ignores them"
        );
        assert_eq!(h, base().with_seed(99).config_hash(), "seed is in the key");
        assert_eq!(
            h,
            base().with_injection(0.7).config_hash(),
            "load is in the key"
        );
        assert_eq!(h, base().with_phase_timing(true).config_hash());
        assert_eq!(
            h,
            base().with_telemetry(4096).config_hash(),
            "snapshots observe the run without perturbing it"
        );
        assert_eq!(
            h,
            base().with_rebalance(64, 1.2).config_hash(),
            "rebalancing never changes results, so the hash ignores it"
        );
        assert_eq!(h, base().with_cancel(CancelToken::new()).config_hash());
    }

    #[test]
    fn hash_separates_result_relevant_knobs() {
        let h = base().config_hash();
        assert_ne!(h, base().with_warmup(200).config_hash());
        assert_ne!(h, base().with_sample(100).config_hash());
        assert_ne!(h, base().with_max_cycles(9_000).config_hash());
        assert_ne!(h, base().with_single_cycle(true).config_hash());
        assert_ne!(h, base().with_credit_prop_delay(4).config_hash());
        assert_ne!(
            h,
            base().with_pattern(TrafficPattern::Transpose).config_hash()
        );
        assert_ne!(
            h,
            NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 })
                .with_warmup(100)
                .with_sample(150)
                .with_max_cycles(8_000)
                .config_hash()
        );
        // VC vs specVC with identical parameters must differ (tagged).
        let vc = NetworkConfig::mesh(
            4,
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_warmup(100)
        .with_sample(150)
        .with_max_cycles(8_000);
        assert_ne!(h, vc.config_hash());
        // Faults change results, so every distinct plan hashes apart —
        // from healthy, and from each other (kind and parameters).
        let faulted = |s: &str| {
            base()
                .with_faults(crate::config::parse_faults(s).expect("test spec"))
                .config_hash()
        };
        let dead = faulted("link:5:0:dead@100");
        assert_ne!(h, dead, "a degraded run is a different experiment");
        assert_ne!(dead, faulted("link:5:0:dead@200"));
        assert_ne!(dead, faulted("link:5:1:dead@100"));
        assert_ne!(dead, faulted("router:5:dead@100"));
        assert_ne!(dead, faulted("link:5:0:flaky@40/10"));
        assert_ne!(dead, faulted("link:5:0:loss@0.1"));
        assert_eq!(
            h,
            base().with_faults(vec![]).config_hash(),
            "an empty plan is the healthy hash"
        );
    }

    #[test]
    fn runner_reproduces_a_direct_run_bit_for_bit() {
        let cfg = base();
        let rec = NetworkRunner
            .run_point(&cfg, cfg.seed, 0.3, &CancelToken::new())
            .expect("not cancelled");
        let direct = Network::new(cfg.clone().with_injection(0.3)).run();
        assert_eq!(
            rec.latency.map(f64::to_bits),
            direct.avg_latency.map(f64::to_bits)
        );
        assert_eq!(rec.cycles, direct.cycles);
        let pct = direct.histogram.percentiles();
        assert_eq!((rec.p50, rec.p95, rec.p99), (pct.p50, pct.p95, pct.p99));
        let point = LoadPoint::from(direct);
        assert_eq!(rec.accepted.to_bits(), point.accepted.to_bits());
        assert_eq!(rec.saturated, point.saturated);
        // The runner switches telemetry on; the direct run above ran
        // with it off — bit-equal results are the neutrality proof.
        // The flow tails need a direct run with telemetry on.
        let traced = Network::new(cfg.clone().with_injection(0.3).with_telemetry(1024)).run();
        let flows = traced.flow_stats.as_ref().expect("telemetry on");
        let (_, _, worst) = flows.worst().expect("flows measured");
        assert!(rec.flows > 0, "tagged flows were attributed");
        assert_eq!(rec.flows, flows.flows());
        assert_eq!(
            (rec.flow_p50, rec.flow_p95, rec.flow_p99),
            (Some(worst.p50), Some(worst.p95), Some(worst.p99))
        );
        assert!(rec.node_drops.is_empty(), "healthy run drops nothing");
    }

    #[test]
    fn runner_records_name_every_node_that_dropped() {
        let faults = crate::config::parse_faults("router:5:dead@200; link:6:0:flaky@64/16")
            .expect("test spec");
        let cfg = base().with_faults(faults);
        let rec = NetworkRunner
            .run_point(&cfg, cfg.seed, 0.2, &CancelToken::new())
            .expect("not cancelled");
        let direct = Network::new(cfg.clone().with_injection(0.2)).run();
        let dropped: Vec<u32> = (0..direct.node_drops.len() as u32)
            .filter(|&n| direct.node_drops[n as usize] != DropStats::default())
            .collect();
        assert!(!dropped.is_empty(), "the faulted run must drop");
        let listed: Vec<u32> = rec.node_drops.iter().map(|d| d.node).collect();
        assert_eq!(listed, dropped, "exactly the dropping nodes, ascending");
        for row in &rec.node_drops {
            let d = &direct.node_drops[row.node as usize];
            assert_eq!(row.flits, d.flits, "node {} flits", row.node);
            assert_eq!(row.packets, d.packets, "node {} packets", row.node);
        }
        for reason in 0..DROP_REASONS {
            let flits: u64 = rec.node_drops.iter().map(|d| d.flits[reason]).sum();
            let packets: u64 = rec.node_drops.iter().map(|d| d.packets[reason]).sum();
            assert_eq!(flits, direct.drops.flits[reason], "reason {reason} flits");
            assert_eq!(
                packets, direct.drops.packets[reason],
                "reason {reason} packets"
            );
        }
        assert!(
            direct.unreachable_pairs > 0,
            "the dead router cuts pairs off"
        );
        assert_eq!(rec.unreachable_pairs, direct.unreachable_pairs);
    }

    #[test]
    fn pre_cancelled_runner_returns_none() {
        let token = CancelToken::new();
        token.cancel();
        assert!(NetworkRunner.run_point(&base(), 1, 0.3, &token).is_none());
    }
}
