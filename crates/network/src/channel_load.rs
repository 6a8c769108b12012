//! Per-channel load measurement.
//!
//! The capacity normalization used throughout the paper (and this
//! reproduction) rests on the claim that, under uniform random traffic
//! with dimension-ordered routing, the *center bisection channels* of a
//! k-ary 2-mesh are the hottest and carry `k/4` flits per injected
//! flit/node. This module counts flit traversals per directed channel so
//! that claim can be verified empirically instead of assumed.

use crate::topology::Mesh;
use std::fmt;

/// Flit counts per directed channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelLoad {
    /// Ports per node, the row stride of `counts`.
    ports: usize,
    /// One flat row per node, indexed `node * ports + out_port`.
    counts: Box<[u64]>,
    cycles: u64,
}

impl ChannelLoad {
    /// A zeroed counter set for `mesh`.
    #[must_use]
    pub fn new(mesh: &Mesh) -> Self {
        ChannelLoad {
            ports: mesh.ports(),
            counts: vec![0; mesh.nodes() * mesh.ports()].into_boxed_slice(),
            cycles: 0,
        }
    }

    /// Records a flit leaving `node` through `out_port`.
    #[inline]
    pub fn record(&mut self, node: usize, out_port: usize) {
        debug_assert!(out_port < self.ports, "port {out_port} out of range");
        self.counts[node * self.ports + out_port] += 1;
    }

    /// Advances the observation window by one cycle.
    pub fn tick(&mut self) {
        self.cycles += 1;
    }

    /// Advances the observation window by `n` cycles at once — used when
    /// an engine fast-forwards a quiescent stretch (no flits crossed any
    /// channel, so only the window length moves).
    pub fn tick_n(&mut self, n: u64) {
        self.cycles += n;
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

    #[test]
    fn utilization_is_count_over_cycles() {
        let mesh = Mesh::new(4, 2);
        let mut load = ChannelLoad::new(&mesh);
        for _ in 0..10 {
            load.tick();
        }
        load.record(0, 0);
        load.record(0, 0);
        assert_eq!(load.count(0, 0), 2);
        assert!((load.utilization(0, 0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn hottest_finds_the_maximum() {
        let mesh = Mesh::new(4, 2);
        let mut load = ChannelLoad::new(&mesh);
        load.tick();
        load.record(3, 1);
        load.record(3, 1);
        load.record(5, 2);
        let (node, port, u) = load.hottest(&mesh).unwrap();
        assert_eq!((node, port), (3, 1));
        assert!((u - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_ignores_unwired_edges() {
        let mesh = Mesh::new(2, 2);
        let mut load = ChannelLoad::new(&mesh);
        load.tick();
        // 2x2 mesh: each node has exactly 2 wired non-local ports.
        load.record(0, 0);
        assert!((load.mean_utilization(&mesh) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_zero_utilization() {
        let mesh = Mesh::new(4, 2);
        let load = ChannelLoad::new(&mesh);
        assert_eq!(load.utilization(0, 0), 0.0);
        assert_eq!(load.mean_utilization(&mesh), 0.0);
    }
}
