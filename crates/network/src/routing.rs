//! Routing functions.
//!
//! The paper uses dimension-ordered routing (DOR) — "the most general
//! possible for deterministic routing" (`Rp→`) — which is deadlock-free
//! on a mesh. A west-first turn-model adaptive router is provided as an
//! extension (the paper's future-work direction).
//!
//! The free functions here ([`dimension_ordered`], [`dateline_vc_mask`],
//! [`west_first_candidates`], [`negative_first_candidates`]) are the
//! *definitions*; the simulator's hot path never calls them per flit.
//! Instead a [`RouteTable`] evaluates them at network construction into
//! dimension-generic tables (per-node coordinates, one k×k
//! direction/dateline table shared by every dimension, and sign-code
//! candidate sets for the adaptive turn models) and the per-flit route
//! computation becomes a scan over at most `n` coordinate bytes plus one
//! table load. The table also holds every node's neighbors, so the
//! engines forward flits and credits without coordinate arithmetic. The
//! table is exhaustively checked against the definitions in
//! `crates/network/tests/route_table.rs`.

use crate::config::RoutingAlgo;
use crate::topology::Mesh;

/// Dimension-ordered routing: correct dimension 0 first, then 1, …; the
/// local port at the destination.
///
/// # Panics
///
/// Panics in debug builds if `src == dest` routing is queried after
/// arrival (callers route only buffered flits, whose dest ≠ current node
/// or which eject locally — both handled).
#[must_use]
pub fn dimension_ordered(mesh: &Mesh, current: usize, dest: usize) -> usize {
    for dim in 0..mesh.dims() {
        let c = mesh.coord(current, dim);
        let d = mesh.coord(dest, dim);
        if c == d {
            continue;
        }
        let positive = if mesh.is_torus() {
            // Shortest way around the ring.
            let fwd = (d + mesh.radix() - c) % mesh.radix();
            fwd <= mesh.radix() - fwd
        } else {
            d > c
        };
        return mesh.port(dim, positive);
    }
    mesh.local_port()
}

/// The dateline VC mask making dimension-ordered routing deadlock-free on
/// a torus (extension; the paper's future-work "other topologies").
///
/// Each ring's virtual channels are split into two classes: packets use
/// class 0 while their remaining path in the ring still crosses the
/// wraparound link (the *dateline* between coordinates `k−1` and `0`) and
/// class 1 afterwards. Class-0 VCs are the lower half `[0, v/2)`, class-1
/// the upper half `[v/2, v)`. Returns an all-ones mask on a mesh or for
/// the local port.
///
/// # Panics
///
/// Panics if `vcs < 2` on a torus (the dateline scheme needs two classes)
/// or if `out_port` has no neighbor.
#[must_use]
pub fn dateline_vc_mask(
    mesh: &Mesh,
    current: usize,
    out_port: usize,
    dest: usize,
    vcs: usize,
) -> u64 {
    let all = if vcs >= 64 {
        u64::MAX
    } else {
        (1u64 << vcs) - 1
    };
    if !mesh.is_torus() || out_port == mesh.local_port() {
        return all;
    }
    assert!(
        vcs >= 2,
        "the dateline scheme needs at least 2 VCs per port"
    );
    let dim = out_port / 2;
    let positive = out_port.is_multiple_of(2);
    let next = mesh
        .neighbor(current, out_port)
        .expect("torus ports always have neighbors");
    let c_next = mesh.coord(next, dim);
    let dc = mesh.coord(dest, dim);
    // Does the remaining path in this ring, from the next node on, still
    // cross the wrap link?
    let still_crossing = if positive { dc < c_next } else { dc > c_next };
    let lower = vcs / 2; // class-0 VCs
    let low_mask = (1u64 << lower) - 1;
    if still_crossing {
        low_mask
    } else {
        all & !low_mask
    }
}

/// Dimension-ordered routing with adaptive selection among west-first
/// candidates (extension): deadlock-free minimal adaptivity on a 2-D
/// mesh, with the candidate chosen by `selector` (e.g. a packet-id hash),
/// spreading traffic across the permitted quadrant paths.
#[must_use]
pub fn west_first_route(mesh: &Mesh, current: usize, dest: usize, selector: u64) -> usize {
    let candidates = west_first_candidates(mesh, current, dest);
    candidates[(selector as usize) % candidates.len()]
}

/// West-first turn-model adaptive routing (extension): route all westward
/// (−X) hops first; afterwards any productive direction is permitted —
/// the returned candidate list is non-empty and deadlock-free on a mesh.
#[must_use]
pub fn west_first_candidates(mesh: &Mesh, current: usize, dest: usize) -> Vec<usize> {
    assert_eq!(mesh.dims(), 2, "west-first is defined for 2-D meshes");
    assert!(!mesh.is_torus(), "west-first is defined for meshes");
    let (cx, cy) = (mesh.coord(current, 0), mesh.coord(current, 1));
    let (dx, dy) = (mesh.coord(dest, 0), mesh.coord(dest, 1));
    if dx < cx {
        // Must go west first; no other turn allowed yet.
        return vec![mesh.port(0, false)];
    }
    let mut out = Vec::new();
    if dx > cx {
        out.push(mesh.port(0, true));
    }
    if dy > cy {
        out.push(mesh.port(1, true));
    } else if dy < cy {
        out.push(mesh.port(1, false));
    }
    if out.is_empty() {
        out.push(mesh.local_port());
    }
    out
}

/// Dimension-ordered routing with adaptive selection among negative-first
/// candidates (extension): deadlock-free minimal adaptivity on any k-ary
/// n-mesh, with the candidate chosen by `selector`.
#[must_use]
pub fn negative_first_route(mesh: &Mesh, current: usize, dest: usize, selector: u64) -> usize {
    let candidates = negative_first_candidates(mesh, current, dest);
    candidates[(selector as usize) % candidates.len()]
}

/// Negative-first turn-model adaptive routing (extension; the Glass–Ni
/// turn model that generalizes to any dimension count): all
/// negative-direction hops are taken first, adaptively among the
/// negative-productive dimensions; only once no negative correction
/// remains may the packet turn positive, again adaptively among the
/// positive-productive dimensions. Prohibiting every positive→negative
/// turn breaks all cycles, so the returned candidate list is non-empty,
/// minimal, and deadlock-free on an n-D mesh of any radix.
///
/// # Panics
///
/// Panics on a torus: turn models reason about mesh channel-dependency
/// graphs and the wraparound links reintroduce cycles.
#[must_use]
pub fn negative_first_candidates(mesh: &Mesh, current: usize, dest: usize) -> Vec<usize> {
    assert!(!mesh.is_torus(), "negative-first is defined for meshes");
    let mut negatives = Vec::new();
    let mut positives = Vec::new();
    for dim in 0..mesh.dims() {
        let c = mesh.coord(current, dim);
        let d = mesh.coord(dest, dim);
        if d < c {
            negatives.push(mesh.port(dim, false));
        } else if d > c {
            positives.push(mesh.port(dim, true));
        }
    }
    if !negatives.is_empty() {
        negatives
    } else if !positives.is_empty() {
        positives
    } else {
        vec![mesh.local_port()]
    }
}

/// An adaptive candidate set holds at most one productive port per
/// dimension (negative-first offers every productive direction of one
/// phase), which bounds the supported dimension count for adaptive
/// algorithms.
pub const MAX_CANDIDATES: usize = 8;

/// One precomputed adaptive candidate set.
#[derive(Debug, Clone, Copy)]
struct CandidateSet {
    ports: [u8; MAX_CANDIDATES],
    len: u8,
}

/// Precomputed, dimension-generic routing decisions.
///
/// Routing on a k-ary n-mesh factors through per-dimension coordinate
/// comparisons, so instead of dense `node × dest` arrays (which would
/// cost O(N²) — ~9 MB of masks alone at 1024 nodes) the table stores:
///
/// * every node's coordinates, one byte per dimension (`coords`);
/// * one k×k *direction* table and one k×k *dateline-mask* table, shared
///   by every dimension — the radix is uniform, and both the
///   shortest-way-around direction and the dateline VC class depend only
///   on the (current, destination) coordinate pair within the ring being
///   corrected;
/// * for the adaptive turn models, one candidate set per *sign code*
///   (the base-3 digit string of per-dimension comparisons, `3ⁿ`
///   entries) — west-first and negative-first candidates depend only on
///   which dimensions need positive or negative correction.
///
/// Every entry is produced by the definitional routing functions of this
/// module evaluated on representative node pairs, so lookups are
/// bit-identical to calling them per flit. A [`RouteTable::route`] is a
/// scan of at most `n` coordinate bytes plus one table load — the k×k
/// tables stay resident in L1 at any network size, where the old dense
/// form thrashed the cache at 1024 nodes.
#[derive(Debug, Clone)]
pub struct RouteTable {
    dims: usize,
    radix: usize,
    local_port: usize,
    all_mask: u64,
    /// `coords[node * dims + d]` = coordinate of `node` in dimension `d`.
    coords: Box<[u8]>,
    /// `dir[c * radix + t]`: direction bit (0 positive, 1 negative) for a
    /// ring hop from coordinate `c` toward `t ≠ c`; the output port in
    /// dimension `d` is `2d + dir`.
    dir: Box<[u8]>,
    /// `masks[c * radix + t]`: dateline VC mask for the same ring hop
    /// (all-ones on a mesh).
    masks: Box<[u64]>,
    /// Candidate sets indexed by sign code, present only for adaptive
    /// algorithms.
    candidates: Option<Box<[CandidateSet]>>,
    /// `mesh.ports()`, the row stride of `nbr`.
    ports: usize,
    /// `nbr[node * ports + port]`: the node a flit leaving `node`
    /// through `port` arrives at, `u32::MAX` at a mesh edge and for the
    /// local port.
    nbr: Box<[u32]>,
}

impl RouteTable {
    /// Precomputes the routing of `algo` over `mesh` with `vcs` VCs per
    /// port.
    ///
    /// # Panics
    ///
    /// Panics where the underlying routing functions would (west-first
    /// outside a 2-D mesh, an adaptive turn model on a torus, a torus
    /// with fewer than 2 VCs) and on shapes the compact encoding cannot
    /// hold (radix > 256, or more than [`MAX_CANDIDATES`] dimensions for
    /// an adaptive algorithm). [`crate::config::NetworkConfig::validate`]
    /// rejects all of these with a [`crate::config::ConfigError`] before
    /// a simulator ever reaches this constructor.
    #[must_use]
    pub fn new(mesh: &Mesh, algo: RoutingAlgo, vcs: usize) -> Self {
        let nodes = mesh.nodes();
        let dims = mesh.dims();
        let k = mesh.radix();
        assert!(k <= 256, "radix {k} exceeds the u8 coordinate encoding");
        let all_mask = if vcs >= 64 {
            u64::MAX
        } else {
            (1u64 << vcs) - 1
        };

        let mut coords = vec![0u8; nodes * dims].into_boxed_slice();
        for node in 0..nodes {
            for d in 0..dims {
                coords[node * dims + d] = mesh.coord(node, d) as u8;
            }
        }

        // The k×k per-ring tables, evaluated on dimension-0
        // representatives (nodes equal in every other coordinate): the
        // radix is uniform, so the same entries govern every dimension.
        let mut dir = vec![0u8; k * k].into_boxed_slice();
        let mut masks = vec![all_mask; k * k].into_boxed_slice();
        let mut rep = vec![0usize; dims];
        for c in 0..k {
            for t in 0..k {
                if c == t {
                    continue;
                }
                rep[0] = c;
                let current = mesh.node_at(&rep);
                rep[0] = t;
                let dest = mesh.node_at(&rep);
                let port = dimension_ordered(mesh, current, dest);
                debug_assert!(port < 2, "representative pair must correct dim 0");
                dir[c * k + t] = port as u8;
                masks[c * k + t] = dateline_vc_mask(mesh, current, port, dest, vcs);
            }
        }

        let candidates = match algo {
            RoutingAlgo::DimensionOrdered => None,
            RoutingAlgo::WestFirstAdaptive | RoutingAlgo::NegativeFirstAdaptive => {
                assert!(
                    dims <= MAX_CANDIDATES,
                    "adaptive routing supports at most {MAX_CANDIDATES} dimensions, got {dims}"
                );
                let mut sets = vec![
                    CandidateSet {
                        ports: [0; MAX_CANDIDATES],
                        len: 0,
                    };
                    3usize.pow(dims as u32)
                ]
                .into_boxed_slice();
                let mut cur = vec![0usize; dims];
                let mut dst = vec![0usize; dims];
                for (code, set) in sets.iter_mut().enumerate() {
                    // Decode the base-3 sign code into a representative
                    // (current, dest) pair with those comparison signs.
                    let mut rem = code;
                    for d in 0..dims {
                        (cur[d], dst[d]) = match rem % 3 {
                            0 => (0, 0), // aligned
                            1 => (0, 1), // positive correction
                            _ => (1, 0), // negative correction
                        };
                        rem /= 3;
                    }
                    let current = mesh.node_at(&cur);
                    let dest = mesh.node_at(&dst);
                    let cands = match algo {
                        RoutingAlgo::WestFirstAdaptive => {
                            west_first_candidates(mesh, current, dest)
                        }
                        RoutingAlgo::NegativeFirstAdaptive => {
                            negative_first_candidates(mesh, current, dest)
                        }
                        RoutingAlgo::DimensionOrdered => unreachable!(),
                    };
                    assert!(cands.len() <= MAX_CANDIDATES, "candidate overflow");
                    set.len = cands.len() as u8;
                    for (slot, &port) in set.ports.iter_mut().zip(&cands) {
                        *slot = u8::try_from(port).expect("port fits u8");
                    }
                }
                Some(sets)
            }
        };

        let ports = mesh.ports();
        let mut nbr = vec![u32::MAX; nodes * ports].into_boxed_slice();
        for node in 0..nodes {
            for port in 0..mesh.local_port() {
                if let Some(nb) = mesh.neighbor(node, port) {
                    nbr[node * ports + port] = nb as u32;
                }
            }
        }

        RouteTable {
            dims,
            radix: k,
            local_port: mesh.local_port(),
            all_mask,
            coords,
            dir,
            masks,
            candidates,
            ports,
            nbr,
        }
    }

    /// The local (injection/ejection) port index.
    #[inline]
    #[must_use]
    pub fn local_port(&self) -> usize {
        self.local_port
    }

    /// The neighbor of `node` through `port`, or `None` at a mesh edge or
    /// for the local port — [`Mesh::neighbor`] as one table load, for the
    /// per-flit paths.
    #[inline]
    #[must_use]
    pub fn neighbor(&self, node: usize, port: usize) -> Option<usize> {
        debug_assert!(port < self.ports, "port {port} out of range");
        let nb = self.nbr[node * self.ports + port];
        (nb != u32::MAX).then_some(nb as usize)
    }

    /// `node`'s coordinates, one byte per dimension.
    #[inline]
    pub(crate) fn coords(&self, node: usize) -> &[u8] {
        &self.coords[node * self.dims..(node + 1) * self.dims]
    }

    /// The output port for a packet at `node` heading to `dest`.
    /// `selector` picks among adaptive candidates (ignored for
    /// deterministic algorithms) exactly like [`west_first_route`] and
    /// [`negative_first_route`].
    #[inline]
    #[must_use]
    pub fn route(&self, node: usize, dest: usize, selector: u64) -> usize {
        let (nc, dc) = (self.coords(node), self.coords(dest));
        match &self.candidates {
            None => {
                for (d, (&c, &t)) in nc.iter().zip(dc).enumerate() {
                    if c != t {
                        return 2 * d + self.dir[c as usize * self.radix + t as usize] as usize;
                    }
                }
                self.local_port
            }
            Some(sets) => {
                let mut code = 0usize;
                let mut pow = 1usize;
                for (&c, &t) in nc.iter().zip(dc) {
                    code += pow
                        * match t.cmp(&c) {
                            std::cmp::Ordering::Equal => 0,
                            std::cmp::Ordering::Greater => 1,
                            std::cmp::Ordering::Less => 2,
                        };
                    pow *= 3;
                }
                let set = &sets[code];
                set.ports[(selector as usize) % set.len as usize] as usize
            }
        }
    }

    /// Writes the base (fault-free) candidate output ports for a packet
    /// at `node` heading to `dest` into `out`, returning the count —
    /// exactly the set [`RouteTable::route`] selects from (a single
    /// entry for deterministic algorithms, the local port at the
    /// destination). The fault overlay filters this set, so a filtered
    /// choice is always a subset of the healthy turn-model set and
    /// inherits its deadlock freedom.
    #[inline]
    #[must_use]
    pub fn candidates_into(
        &self,
        node: usize,
        dest: usize,
        out: &mut [u8; MAX_CANDIDATES],
    ) -> usize {
        let (nc, dc) = (self.coords(node), self.coords(dest));
        match &self.candidates {
            None => {
                for (d, (&c, &t)) in nc.iter().zip(dc).enumerate() {
                    if c != t {
                        out[0] = 2 * d as u8 + self.dir[c as usize * self.radix + t as usize];
                        return 1;
                    }
                }
                out[0] = self.local_port as u8;
                1
            }
            Some(sets) => {
                let mut code = 0usize;
                let mut pow = 1usize;
                for (&c, &t) in nc.iter().zip(dc) {
                    code += pow
                        * match t.cmp(&c) {
                            std::cmp::Ordering::Equal => 0,
                            std::cmp::Ordering::Greater => 1,
                            std::cmp::Ordering::Less => 2,
                        };
                    pow *= 3;
                }
                let set = &sets[code];
                let len = set.len as usize;
                out[..len].copy_from_slice(&set.ports[..len]);
                len
            }
        }
    }

    /// The permitted output-VC mask at `node` for a packet to `dest`
    /// (precomputed for the port the table itself routes to; all-ones on
    /// a mesh).
    #[inline]
    #[must_use]
    pub fn vc_mask(&self, node: usize, dest: usize) -> u64 {
        let (nc, dc) = (self.coords(node), self.coords(dest));
        for (&c, &t) in nc.iter().zip(dc) {
            if c != t {
                return self.masks[c as usize * self.radix + t as usize];
            }
        }
        self.all_mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dor_corrects_x_before_y() {
        let m = Mesh::new(8, 2);
        let src = m.node_at(&[1, 1]);
        let dest = m.node_at(&[4, 5]);
        assert_eq!(dimension_ordered(&m, src, dest), m.port(0, true));
        let aligned_x = m.node_at(&[4, 1]);
        assert_eq!(dimension_ordered(&m, aligned_x, dest), m.port(1, true));
    }

    #[test]
    fn dor_ejects_at_destination() {
        let m = Mesh::new(8, 2);
        assert_eq!(dimension_ordered(&m, 9, 9), m.local_port());
    }

    #[test]
    fn dor_paths_terminate_and_are_minimal() {
        let m = Mesh::new(5, 2);
        for src in 0..m.nodes() {
            for dest in 0..m.nodes() {
                let mut cur = src;
                let mut hops = 0;
                loop {
                    let port = dimension_ordered(&m, cur, dest);
                    if port == m.local_port() {
                        break;
                    }
                    cur = m.neighbor(cur, port).expect("DOR never exits the mesh");
                    hops += 1;
                    assert!(hops <= m.distance(src, dest), "non-minimal path");
                }
                assert_eq!(cur, dest);
                assert_eq!(hops, m.distance(src, dest));
            }
        }
    }

    #[test]
    fn dor_on_torus_takes_shortcuts() {
        let t = Mesh::new(8, 2).into_torus();
        let src = t.node_at(&[0, 0]);
        let dest = t.node_at(&[6, 0]);
        // 6 forward vs 2 backward: backward wins.
        assert_eq!(dimension_ordered(&t, src, dest), t.port(0, false));
    }

    #[test]
    fn west_first_restricts_when_west_needed() {
        let m = Mesh::new(8, 2);
        let src = m.node_at(&[5, 2]);
        let dest = m.node_at(&[2, 6]);
        assert_eq!(west_first_candidates(&m, src, dest), vec![m.port(0, false)]);
    }

    #[test]
    fn west_first_offers_adaptivity_going_east() {
        let m = Mesh::new(8, 2);
        let src = m.node_at(&[1, 1]);
        let dest = m.node_at(&[4, 5]);
        let cands = west_first_candidates(&m, src, dest);
        assert_eq!(cands.len(), 2, "east and north both productive");
    }

    #[test]
    fn dateline_mask_is_all_ones_on_mesh() {
        let m = Mesh::new(4, 2);
        assert_eq!(dateline_vc_mask(&m, 0, 0, 5, 2), 0b11);
        assert_eq!(dateline_vc_mask(&m, 0, m.local_port(), 0, 4), 0b1111);
    }

    #[test]
    fn dateline_mask_splits_classes_on_torus() {
        let t = Mesh::new(8, 2).into_torus();
        // From (6,0) to (1,0): minimal goes +X and crosses the dateline.
        let src = t.node_at(&[6, 0]);
        let dest = t.node_at(&[1, 0]);
        let port = dimension_ordered(&t, src, dest);
        assert_eq!(port, t.port(0, true));
        // From node 6, next is 7: remaining path still crosses → class 0.
        assert_eq!(dateline_vc_mask(&t, src, port, dest, 2), 0b01);
        // From node 7, next is 0 (the wrap link): crossed → class 1.
        let at7 = t.node_at(&[7, 0]);
        assert_eq!(dateline_vc_mask(&t, at7, port, dest, 2), 0b10);
        // From node 0, next is 1: class 1 stays.
        let at0 = t.node_at(&[0, 0]);
        assert_eq!(dateline_vc_mask(&t, at0, port, dest, 2), 0b10);
    }

    #[test]
    fn dateline_mask_class1_for_non_crossing_paths() {
        let t = Mesh::new(8, 2).into_torus();
        let src = t.node_at(&[1, 0]);
        let dest = t.node_at(&[3, 0]);
        let port = dimension_ordered(&t, src, dest);
        assert_eq!(dateline_vc_mask(&t, src, port, dest, 4), 0b1100);
    }

    #[test]
    fn dateline_walk_switches_class_exactly_once() {
        let t = Mesh::new(8, 2).into_torus();
        for (sx, dx) in [(5usize, 2usize), (2, 6), (7, 0), (0, 7)] {
            let dest = t.node_at(&[dx, 3]);
            let mut cur = t.node_at(&[sx, 3]);
            let mut classes = Vec::new();
            loop {
                let port = dimension_ordered(&t, cur, dest);
                if port == t.local_port() {
                    break;
                }
                let mask = dateline_vc_mask(&t, cur, port, dest, 2);
                classes.push(mask);
                cur = t.neighbor(cur, port).unwrap();
            }
            // Classes must be a (possibly empty) run of 0b01 followed by a
            // run of 0b10 — never back to class 0.
            let first_one = classes.iter().position(|&m| m == 0b10);
            if let Some(i) = first_one {
                assert!(classes[i..].iter().all(|&m| m == 0b10), "{classes:?}");
            }
        }
    }

    #[test]
    fn west_first_route_returns_a_candidate() {
        let m = Mesh::new(8, 2);
        let src = m.node_at(&[1, 1]);
        let dest = m.node_at(&[4, 5]);
        let cands = west_first_candidates(&m, src, dest);
        for sel in 0..5u64 {
            assert!(cands.contains(&west_first_route(&m, src, dest, sel)));
        }
        // Different selectors actually spread over both candidates.
        let picks: std::collections::HashSet<usize> = (0..4u64)
            .map(|s| west_first_route(&m, src, dest, s))
            .collect();
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn west_first_candidates_are_minimal() {
        let m = Mesh::new(6, 2);
        for src in 0..m.nodes() {
            for dest in 0..m.nodes() {
                for port in west_first_candidates(&m, src, dest) {
                    if port == m.local_port() {
                        assert_eq!(src, dest);
                        continue;
                    }
                    let next = m.neighbor(src, port).expect("stays in mesh");
                    assert_eq!(
                        m.distance(next, dest) + 1,
                        m.distance(src, dest),
                        "candidate must be productive"
                    );
                }
            }
        }
    }
}
