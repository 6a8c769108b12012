//! Per-channel load measurement.
//!
//! The capacity normalization used throughout the paper (and this
//! reproduction) rests on the claim that, under uniform random traffic
//! with dimension-ordered routing, the *center bisection channels* of a
//! k-ary 2-mesh are the hottest and carry `k/4` flits per injected
//! flit/node. Every router counts the flits that leave through each of
//! its output ports ([`Router::departures`]); this module reads those
//! counts per directed channel so that claim can be verified
//! empirically instead of assumed.

use crate::topology::Mesh;
use router_core::Router;
use std::fmt;

/// Flit counts per directed channel, as [`crate::Network::channel_load`]
/// reads them off the routers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelLoad {
    /// Ports per node, the row stride of `counts`.
    ports: usize,
    /// One flat row per node, indexed `node * ports + out_port`.
    counts: Box<[u64]>,
    cycles: u64,
}

impl ChannelLoad {
    /// The departures `routers` have counted, each with `ports` output
    /// ports, over a window of `cycles`.
    pub(crate) fn from_routers(routers: &[Router], ports: usize, cycles: u64) -> Self {
        ChannelLoad {
            ports,
            counts: routers
                .iter()
                .flat_map(|r| (0..ports).map(|p| r.departures(p)))
                .collect(),
            cycles,
        }
    }

    /// Cycles observed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Flits that crossed `(node, out_port)`.
    #[must_use]
    pub fn count(&self, node: usize, out_port: usize) -> u64 {
        self.counts[node * self.ports + out_port]
    }

    /// Utilization of a channel in flits/cycle over the window.
    #[must_use]
    pub fn utilization(&self, node: usize, out_port: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.count(node, out_port) as f64 / self.cycles as f64
        }
    }

    /// The most-utilized non-local channel: `(node, out_port, flits/cycle)`.
    #[must_use]
    pub fn hottest(&self, mesh: &Mesh) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for node in 0..mesh.nodes() {
            for port in 0..mesh.local_port() {
                let u = self.utilization(node, port);
                if best.is_none_or(|(_, _, b)| u > b) {
                    best = Some((node, port, u));
                }
            }
        }
        best
    }

    /// Mean utilization over all wired non-local channels.
    #[must_use]
    pub fn mean_utilization(&self, mesh: &Mesh) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for node in 0..mesh.nodes() {
            for port in 0..mesh.local_port() {
                if mesh.neighbor(node, port).is_some() {
                    sum += self.utilization(node, port);
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }
}

impl fmt::Display for ChannelLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChannelLoad({} cycles observed)", self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A load over `cycles` with one flit per `(node, out_port)` entry.
    fn synthetic(mesh: &Mesh, cycles: u64, flits: &[(usize, usize)]) -> ChannelLoad {
        let mut counts = vec![0; mesh.nodes() * mesh.ports()];
        for &(node, port) in flits {
            counts[node * mesh.ports() + port] += 1;
        }
        ChannelLoad {
            ports: mesh.ports(),
            counts: counts.into_boxed_slice(),
            cycles,
        }
    }

    #[test]
    fn utilization_is_count_over_cycles() {
        let mesh = Mesh::new(4, 2);
        let load = synthetic(&mesh, 10, &[(0, 0), (0, 0)]);
        assert_eq!(load.count(0, 0), 2);
        assert!((load.utilization(0, 0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn hottest_finds_the_maximum() {
        let mesh = Mesh::new(4, 2);
        let load = synthetic(&mesh, 1, &[(3, 1), (3, 1), (5, 2)]);
        let (node, port, u) = load.hottest(&mesh).unwrap();
        assert_eq!((node, port), (3, 1));
        assert!((u - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_ignores_unwired_edges() {
        let mesh = Mesh::new(2, 2);
        // 2x2 mesh: each node has exactly 2 wired non-local ports.
        let load = synthetic(&mesh, 1, &[(0, 0)]);
        assert!((load.mean_utilization(&mesh) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_zero_utilization() {
        let mesh = Mesh::new(4, 2);
        let load = synthetic(&mesh, 0, &[]);
        assert_eq!(load.utilization(0, 0), 0.0);
        assert_eq!(load.mean_utilization(&mesh), 0.0);
    }
}
