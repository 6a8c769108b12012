//! Closed-form zero-load latency, used to cross-validate the simulator
//! against the delay model's pipeline depths.

/// Zero-load packet latency on a mesh, in cycles:
///
/// ```text
/// L0 = inj + (D+1)·(S−1) + D·(1+link) + (len−1)
/// ```
///
/// where `S` is the router pipeline depth in stages, `D` the hop distance,
/// `len` the packet length in flits, `link` the channel propagation delay,
/// and `inj = 1 + link` the injection channel crossing. Assumes buffering
/// covers the credit loop (no serialization stall).
///
/// ```
/// // Paper §5.1: a wormhole router (3 stages) on the 8x8 mesh averages
/// // ~29 cycles at zero load for 5-flit packets.
/// let mesh = peh_dally::noc_network::Mesh::paper_8x8();
/// let l0 = peh_dally::zero_load_latency(3, mesh.average_distance(), 5, 1);
/// assert!((l0 - 29.3).abs() < 0.5);
/// ```
#[must_use]
pub fn zero_load_latency(stages: u32, distance: f64, packet_len: u32, link_delay: u64) -> f64 {
    let s = f64::from(stages);
    let hop_link = 1.0 + link_delay as f64;
    let inj = hop_link;
    inj + (distance + 1.0) * (s - 1.0) + distance * hop_link + f64::from(packet_len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_network::Mesh;

    #[test]
    fn paper_zero_load_values() {
        let d = Mesh::paper_8x8().average_distance();
        // WH 3 stages ≈ 29; VC 4 stages ≈ 36; single-cycle ≈ 16.
        assert!((zero_load_latency(3, d, 5, 1) - 29.3).abs() < 0.5);
        assert!((zero_load_latency(4, d, 5, 1) - 35.7).abs() < 0.5);
        assert!((zero_load_latency(1, d, 5, 1) - 16.7).abs() < 0.5);
    }

    #[test]
    fn one_hop_wormhole_is_twelve_cycles() {
        // Matches the simulator's measured minimum for D = 1.
        assert!((zero_load_latency(3, 1.0, 5, 1) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn deeper_pipelines_cost_one_cycle_per_router() {
        let d = 5.0;
        let l3 = zero_load_latency(3, d, 5, 1);
        let l4 = zero_load_latency(4, d, 5, 1);
        assert!((l4 - l3 - (d + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn longer_packets_add_serialization_only() {
        let l5 = zero_load_latency(3, 4.0, 5, 1);
        let l9 = zero_load_latency(3, 4.0, 9, 1);
        assert!((l9 - l5 - 4.0).abs() < 1e-9);
    }
}
