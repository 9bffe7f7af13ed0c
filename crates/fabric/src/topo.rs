//! Multi-switch topology descriptions and deterministic routing.
//!
//! A [`Topology`] is a pure description: `N` hosts, `S` switches, a host→
//! edge-switch attachment map, and switch↔switch trunks with their own
//! [`LinkParams`]. Constructors cover the shapes the suite exercises —
//! [`Topology::star`] (the paper's testbed: one switch, unbounded host
//! ports), [`Topology::dumbbell`] and a 2-level [`Topology::fat_tree`].
//! The San consumes the description to build per-output-port switch state
//! (see `san.rs`); everything here is side-effect-free and cheap to clone.
//!
//! # Routing
//!
//! Paths are shortest-path with deterministic ECMP tie-breaking: a BFS over
//! the switch graph ([`Topology::compute_routes`]) precomputes, for every
//! `(switch, destination switch)` pair, the sorted set of equal-cost next
//! hops; [`Routes::next_hop`] picks one by a content-keyed hash of the
//! *flow key* — derived from the frame's [`MsgId`] `(src_node, vi)`,
//! deliberately excluding the sequence number so every fragment and
//! retransmit of a flow takes the same path and per-flow FIFO order
//! survives ECMP. Control frames without a `MsgId` key on the `(src, dst)`
//! node pair. No RNG is consumed anywhere: the same frame takes the same
//! path in every run.

use simkit::rng::splitmix64;
use simkit::SimDuration;
use trace::MsgId;

use crate::params::LinkParams;
use crate::san::NodeId;

/// Salt for ECMP next-hop selection ("VIBeECMP").
const ECMP_SALT: u64 = 0x5649_4265_4543_4D50;
/// Salt for data-flow keys ("VIBeFLOW").
const FLOW_SALT: u64 = 0x5649_4265_464C_4F57;
/// Salt for control-frame flow keys ("VIBeCTRL").
const CTRL_SALT: u64 = 0x5649_4265_4354_524C;

/// What a switch output port feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortTarget {
    /// A host downlink: the port delivers to this node.
    Node(u32),
    /// A trunk: the port forwards to this switch.
    Switch(u32),
}

/// One switch output port: its target plus, for trunks, the trunk's link
/// parameters. Host ports use the San's uniform access-link parameters
/// (`None` here).
#[derive(Clone, Copy, Debug)]
pub struct PortSpec {
    /// Where frames leaving this port go.
    pub target: PortTarget,
    /// Trunk link parameters; `None` for host ports (access link applies).
    pub trunk: Option<LinkParams>,
}

/// Bounds on every switch output-port buffer in a topology.
///
/// `capacity` frames may be admitted (queued or on the wire) per port;
/// past that, up to `pause_depth` frames are *paused* — parked upstream
/// under link-level backpressure, admitted FIFO as slots free. Only when
/// the pause queue is also full does the port drop, and every such drop is
/// attributed in the per-port counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortLimits {
    /// Admitted-frame bound per output port (≥ 1).
    pub capacity: u32,
    /// Paused-frame bound per output port (0 = drop as soon as full).
    pub pause_depth: u32,
    /// Pause-storm watchdog bound: the longest a port may hold frames
    /// paused *consecutively* before the watchdog trips, drains the pause
    /// queue into honest drops, and increments `storm_trips`. `None`
    /// (default) disables the watchdog — pauses may persist indefinitely,
    /// as before.
    pub max_pause: Option<SimDuration>,
}

impl PortLimits {
    /// A port with nothing to arbitrate: every frame is admitted the
    /// instant it arrives, so the San neither stages arrivals nor tracks
    /// occupancy for it. Only one-switch shapes may use it — see
    /// [`Topology::star`].
    pub(crate) const UNBOUNDED: PortLimits = PortLimits {
        capacity: u32::MAX,
        pause_depth: 0,
        max_pause: None,
    };

    /// True for [`PortLimits::UNBOUNDED`] buffers.
    pub(crate) fn is_unbounded(&self) -> bool {
        self.capacity == u32::MAX
    }
}

impl Default for PortLimits {
    fn default() -> Self {
        PortLimits {
            capacity: 8,
            pause_depth: 24,
            max_pause: None,
        }
    }
}

/// Cumulative counters of one switch output port. Honest accounting: every
/// frame reaching the port is exactly one of admitted-at-ingress, paused
/// (later admitted), or dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Frames admitted to the port (including previously paused ones).
    pub admitted: u64,
    /// Frames parked under backpressure because the buffer was full.
    pub pauses: u64,
    /// Frames dropped because buffer *and* pause queue were full.
    pub drops: u64,
    /// Paused frames whose final destination differed from the last frame
    /// admitted to this port — head-of-line blocking victims.
    pub hol_blocked: u64,
    /// Frames flushed or refused because a fault window ([`SwitchDown`],
    /// [`TrunkDown`]) covered this port — distinct from congestion `drops`.
    ///
    /// [`SwitchDown`]: crate::fault::FaultKind::SwitchDown
    /// [`TrunkDown`]: crate::fault::FaultKind::TrunkDown
    pub fault_dropped: u64,
    /// Times the pause-storm watchdog tripped on this port (consecutive
    /// pause time exceeded [`PortLimits::max_pause`]).
    pub storm_trips: u64,
    /// Frames drained from the pause queue by watchdog trips. Counted in
    /// the San-wide port-dropped total alongside `drops`.
    pub storm_dropped: u64,
    /// Longest observed consecutive pause streak, in nanoseconds. With the
    /// watchdog armed this is bounded by `max_pause` plus one resolver
    /// granule (a serialization + switch latency).
    pub max_pause_ns: u64,
    /// Maximum simultaneous admitted occupancy observed.
    pub highwater: u32,
    /// Maximum pause-queue depth observed.
    pub pause_highwater: u32,
}

/// A point-in-time copy of one port's counters, tagged with its location.
#[derive(Clone, Copy, Debug)]
pub struct PortSnapshot {
    /// Switch the port belongs to.
    pub switch: u32,
    /// What the port feeds.
    pub target: PortTarget,
    /// Counter values at snapshot time.
    pub stats: PortStats,
}

/// A routing table: sorted equal-cost next-hop sets over the switches
/// left after excluding failed switches and trunks, plus the reconvergence
/// `epoch` that re-salts ECMP. Produced by [`Topology::compute_routes`];
/// a pure value — the same `(failed set, epoch)` yields the same table in
/// every run. The baseline ([`Topology::routes`]) is the table with
/// nothing failed at epoch 0.
///
/// Lookups return `Option`: a fault window may partition the fabric, in
/// which case the candidate set is empty and the San drops the frame with
/// honest accounting instead of panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Routes {
    next_hops: Vec<Vec<Vec<u32>>>,
    epoch: u64,
}

impl Routes {
    /// Deterministic ECMP next hop from `sw` toward `dst_sw` for `flow`
    /// (a [`Topology::flow_key`]), or `None` when no surviving path
    /// exists. Hashes per hop, as real switches do; a pure function of
    /// `(sw, dst_sw, flow, epoch)` — no RNG, no state. Epochs after 0 fold
    /// into the salt so surviving flows re-spread over the remaining
    /// equal-cost paths instead of piling onto the old hash's choices.
    pub fn next_hop(&self, sw: u32, dst_sw: u32, flow: u64) -> Option<u32> {
        let c = &self.next_hops[sw as usize][dst_sw as usize];
        if c.is_empty() {
            return None;
        }
        if c.len() == 1 {
            return Some(c[0]);
        }
        let salt = if self.epoch == 0 {
            ECMP_SALT
        } else {
            ECMP_SALT ^ splitmix64(self.epoch)
        };
        let h = splitmix64(flow ^ (u64::from(sw) << 32) ^ u64::from(dst_sw) ^ salt);
        Some(c[(h % c.len() as u64) as usize])
    }
}

/// A static multi-switch network shape. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Topology {
    name: &'static str,
    nodes: u32,
    /// Host → edge switch.
    edge_of: Vec<u32>,
    /// Host → index of its port on its edge switch.
    host_port: Vec<u32>,
    /// Per-switch output ports: host ports first (ascending node), then
    /// trunk ports (ascending neighbor switch).
    ports: Vec<Vec<PortSpec>>,
    /// The baseline table: nothing failed, epoch 0.
    routes: Routes,
    limits: PortLimits,
}

impl Topology {
    /// The single-switch star: every node attached to one switch — the
    /// shape of the paper's testbeds. Its host ports are unbounded (the
    /// destination downlink is the only queue, and a wire never refuses a
    /// frame), so nothing is ever paused or dropped at the switch.
    pub fn star(nodes: usize) -> Topology {
        assert!(nodes >= 1, "star needs at least one node");
        let ports = vec![(0..nodes as u32)
            .map(|n| PortSpec {
                target: PortTarget::Node(n),
                trunk: None,
            })
            .collect()];
        Topology::finish(
            "star",
            nodes as u32,
            vec![0; nodes],
            ports,
            PortLimits::UNBOUNDED,
        )
    }

    /// Two switches joined by one trunk; the first `ceil(nodes/2)` hosts on
    /// switch 0, the rest on switch 1. The minimal congestible shape: all
    /// cross-half traffic funnels through a single trunk port pair.
    pub fn dumbbell(nodes: usize, trunk: LinkParams, limits: PortLimits) -> Topology {
        assert!(nodes >= 2, "dumbbell needs at least two nodes");
        let half = nodes.div_ceil(2) as u32;
        let edge_of: Vec<u32> = (0..nodes as u32).map(|n| u32::from(n >= half)).collect();
        let ports = Topology::switch_ports(2, &edge_of, &[(0, 1)], trunk);
        Topology::finish("dumbbell", nodes as u32, edge_of, ports, limits)
    }

    /// A 2-level fat-tree (leaf/spine): `edges` edge switches with
    /// `hosts_per_edge` hosts each, every edge trunked to every one of the
    /// `spines` spine switches. Edge switches are ids `0..edges`, spines
    /// `edges..edges+spines`. Cross-edge paths are edge→spine→edge with
    /// `spines` equal-cost choices.
    pub fn fat_tree(
        edges: usize,
        hosts_per_edge: usize,
        spines: usize,
        trunk: LinkParams,
        limits: PortLimits,
    ) -> Topology {
        assert!(
            edges >= 2 && spines >= 1 && hosts_per_edge >= 1,
            "degenerate fat-tree"
        );
        let nodes = (edges * hosts_per_edge) as u32;
        let edge_of: Vec<u32> = (0..nodes).map(|n| n / hosts_per_edge as u32).collect();
        let mut trunks = Vec::new();
        for e in 0..edges as u32 {
            for s in 0..spines as u32 {
                trunks.push((e, edges as u32 + s));
            }
        }
        let ports = Topology::switch_ports((edges + spines) as u32, &edge_of, &trunks, trunk);
        Topology::finish("fat-tree", nodes, edge_of, ports, limits)
    }

    /// Build per-switch port lists: host ports (node order), then trunk
    /// ports (neighbor order). `trunks` lists undirected switch pairs.
    fn switch_ports(
        switches: u32,
        edge_of: &[u32],
        trunks: &[(u32, u32)],
        trunk: LinkParams,
    ) -> Vec<Vec<PortSpec>> {
        let mut ports: Vec<Vec<PortSpec>> = vec![Vec::new(); switches as usize];
        for (n, &sw) in edge_of.iter().enumerate() {
            ports[sw as usize].push(PortSpec {
                target: PortTarget::Node(n as u32),
                trunk: None,
            });
        }
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); switches as usize];
        for &(a, b) in trunks {
            assert!(a != b && a < switches && b < switches, "bad trunk {a}-{b}");
            neighbors[a as usize].push(b);
            neighbors[b as usize].push(a);
        }
        for (sw, mut ns) in neighbors.into_iter().enumerate() {
            ns.sort_unstable();
            ns.dedup();
            for n in ns {
                ports[sw].push(PortSpec {
                    target: PortTarget::Switch(n),
                    trunk: Some(trunk),
                });
            }
        }
        ports
    }

    /// Index host ports and precompute the baseline routing table.
    fn finish(
        name: &'static str,
        nodes: u32,
        edge_of: Vec<u32>,
        ports: Vec<Vec<PortSpec>>,
        limits: PortLimits,
    ) -> Topology {
        assert!(limits.capacity >= 1, "port capacity must be at least 1");
        let s = ports.len();
        // Unbounded ports admit in engine event order; behind trunks that
        // order would depend on how upstream events were scheduled.
        assert!(
            s == 1 || !limits.is_unbounded(),
            "multi-switch ports need a finite buffer"
        );
        let mut host_port = vec![0; nodes as usize];
        for ps in &ports {
            for (i, p) in ps.iter().enumerate() {
                if let PortTarget::Node(n) = p.target {
                    host_port[n as usize] = i as u32;
                }
            }
        }
        let mut t = Topology {
            name,
            nodes,
            edge_of,
            host_port,
            ports,
            routes: Routes {
                next_hops: Vec::new(),
                epoch: 0,
            },
            limits,
        };
        t.routes = t.compute_routes(&[], &[], 0);
        for (a, row) in t.routes.next_hops.iter().enumerate() {
            for (b, c) in row.iter().enumerate() {
                assert!(
                    a == b || !c.is_empty(),
                    "topology disconnected: switch {a} cannot reach {b}"
                );
            }
        }
        t
    }

    /// Shape name ("star", "dumbbell", "fat-tree").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of hosts.
    pub fn nodes(&self) -> usize {
        self.nodes as usize
    }

    /// Number of switches.
    pub fn switches(&self) -> usize {
        self.ports.len()
    }

    /// The edge switch node `node` attaches to.
    pub fn edge_of(&self, node: u32) -> u32 {
        self.edge_of[node as usize]
    }

    /// True for exactly-one-switch shapes: the route is known at injection,
    /// so the San pays the switch traversal on the way in and honors
    /// [`crate::params::SwitchParams::cut_through`].
    pub fn is_single_switch(&self) -> bool {
        self.ports.len() == 1
    }

    /// Per-port buffer bounds.
    pub fn limits(&self) -> PortLimits {
        self.limits
    }

    /// Output ports of switch `sw` (host ports first, then trunks).
    pub fn ports(&self, sw: u32) -> &[PortSpec] {
        &self.ports[sw as usize]
    }

    /// Total trunk ports across all switches (two per undirected trunk).
    pub fn trunk_ports(&self) -> usize {
        self.ports
            .iter()
            .flatten()
            .filter(|p| p.trunk.is_some())
            .count()
    }

    /// Every undirected trunk as a normalized `(low, high)` switch pair,
    /// sorted ascending. Empty for single-switch shapes. This is the
    /// domain [`FaultPlan::randomized_topo`] draws [`TrunkDown`] windows
    /// from.
    ///
    /// [`FaultPlan::randomized_topo`]: crate::fault::FaultPlan::randomized_topo
    /// [`TrunkDown`]: crate::fault::FaultKind::TrunkDown
    pub fn trunk_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (sw, ps) in self.ports.iter().enumerate() {
            for p in ps {
                if let PortTarget::Switch(n) = p.target {
                    if n > sw as u32 {
                        pairs.push((sw as u32, n));
                    }
                }
            }
        }
        pairs
    }

    /// Index of switch `sw`'s port toward node `node`. Panics if the node
    /// is not attached to `sw`.
    pub fn port_to_node(&self, sw: u32, node: u32) -> usize {
        assert_eq!(
            self.edge_of[node as usize], sw,
            "node not attached to this switch"
        );
        self.host_port[node as usize] as usize
    }

    /// Index of switch `sw`'s trunk port toward neighbor switch `next`.
    pub fn port_to_switch(&self, sw: u32, next: u32) -> usize {
        self.ports[sw as usize]
            .iter()
            .position(|p| p.target == PortTarget::Switch(next))
            .expect("switches are not adjacent")
    }

    /// The content-keyed flow key routing hashes on: `(src_node, vi)` of
    /// the message id — *excluding* the sequence number, so fragments and
    /// retransmits of one flow share a path and per-flow FIFO order
    /// survives ECMP. Control frames key on the node pair.
    pub fn flow_key(src: NodeId, dst: NodeId, msg: Option<&MsgId>) -> u64 {
        match msg {
            Some(m) => splitmix64((u64::from(m.src_node) << 32 | u64::from(m.vi)) ^ FLOW_SALT),
            None => splitmix64((u64::from(src.0) << 32 | u64::from(dst.0)) ^ CTRL_SALT),
        }
    }

    /// The baseline routing table: every switch and trunk up, epoch 0.
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// Compute shortest-path routing with `failed_switches` removed from
    /// the graph entirely and `failed_trunks` (undirected, any order) cut.
    /// Unreachable destinations get empty candidate sets rather than a
    /// panic — the fabric may legitimately partition under faults. With
    /// both failure sets empty and `epoch == 0`, this is the baseline
    /// [`Topology::routes`].
    pub fn compute_routes(
        &self,
        failed_switches: &[u32],
        failed_trunks: &[(u32, u32)],
        epoch: u64,
    ) -> Routes {
        let s = self.ports.len();
        let dead = |sw: u32| failed_switches.contains(&sw);
        let cut = |a: u32, b: u32| {
            let pair = (a.min(b), a.max(b));
            failed_trunks
                .iter()
                .any(|&(x, y)| (x.min(y), x.max(y)) == pair)
        };
        let adj: Vec<Vec<u32>> = self
            .ports
            .iter()
            .enumerate()
            .map(|(sw, ps)| {
                if dead(sw as u32) {
                    return Vec::new();
                }
                ps.iter()
                    .filter_map(|p| match p.target {
                        PortTarget::Switch(n) if !dead(n) && !cut(sw as u32, n) => Some(n),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let mut dist = vec![vec![u32::MAX; s]; s];
        for (src, row) in dist.iter_mut().enumerate() {
            if dead(src as u32) {
                continue;
            }
            row[src] = 0;
            let mut frontier = vec![src as u32];
            let mut d = 0;
            while !frontier.is_empty() {
                d += 1;
                let mut next = Vec::new();
                for &f in &frontier {
                    for &n in &adj[f as usize] {
                        if row[n as usize] == u32::MAX {
                            row[n as usize] = d;
                            next.push(n);
                        }
                    }
                }
                frontier = next;
            }
        }
        let next_hops: Vec<Vec<Vec<u32>>> = (0..s)
            .map(|src| {
                (0..s)
                    .map(|dst| {
                        if src == dst || dist[src][dst] == u32::MAX {
                            return Vec::new();
                        }
                        // Neighbors strictly closer to dst; `adj` follows
                        // port order (ascending neighbor), so this is sorted.
                        adj[src]
                            .iter()
                            .copied()
                            .filter(|&n| {
                                dist[n as usize][dst] != u32::MAX
                                    && dist[n as usize][dst] + 1 == dist[src][dst]
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Routes { next_hops, epoch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trunk() -> LinkParams {
        LinkParams {
            bandwidth_bps: 440_000_000,
            propagation: SimDuration::from_nanos(600),
            frame_overhead_bytes: 8,
            mtu: 64 * 1024,
        }
    }

    /// The switch sequence the baseline table sends a `flow` frame along
    /// from `src` to `dst` (edge switch of `src` first, of `dst` last).
    fn walk(t: &Topology, src: NodeId, dst: NodeId, flow: u64) -> Vec<u32> {
        let dst_sw = t.edge_of(dst.0);
        let mut path = vec![t.edge_of(src.0)];
        while path[path.len() - 1] != dst_sw {
            let hop = t.routes().next_hop(path[path.len() - 1], dst_sw, flow);
            path.push(hop.expect("baseline routes reach every switch"));
        }
        path
    }

    #[test]
    fn star_is_one_unbounded_switch() {
        let t = Topology::star(5);
        assert!(t.is_single_switch());
        assert_eq!(t.switches(), 1);
        assert_eq!(t.nodes(), 5);
        assert_eq!(t.trunk_ports(), 0);
        assert!((0..5).all(|n| t.edge_of(n) == 0));
        assert_eq!(t.ports(0).len(), 5);
        assert!(t.limits().is_unbounded());
        assert!((0..5).all(|n| t.port_to_node(0, n) == n as usize));
    }

    #[test]
    fn fat_tree_shape_and_routes() {
        let t = Topology::fat_tree(4, 2, 2, trunk(), PortLimits::default());
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.switches(), 6);
        assert_eq!(t.trunk_ports(), 16); // 8 trunks, 2 ports each
        assert_eq!(t.edge_of(0), 0);
        assert_eq!(t.edge_of(7), 3);
        // Edge→edge is two hops via either spine.
        assert_eq!(t.routes().next_hops[0][3], vec![4, 5]);
        // Every route from node 0 to node 6 goes edge0 → spine → edge3.
        for vi in 0..32u32 {
            let key = Topology::flow_key(
                NodeId(0),
                NodeId(6),
                Some(&MsgId {
                    src_node: 0,
                    vi,
                    seq: 0,
                }),
            );
            let path = walk(&t, NodeId(0), NodeId(6), key);
            assert_eq!(path.len(), 3);
            assert_eq!(path[0], 0);
            assert!(path[1] == 4 || path[1] == 5);
            assert_eq!(path[2], 3);
        }
    }

    #[test]
    fn flow_key_ignores_seq_and_routes_are_pure() {
        let t = Topology::fat_tree(4, 2, 2, trunk(), PortLimits::default());
        let m = |seq| MsgId {
            src_node: 1,
            vi: 3,
            seq,
        };
        let k0 = Topology::flow_key(NodeId(1), NodeId(6), Some(&m(0)));
        let k9 = Topology::flow_key(NodeId(1), NodeId(6), Some(&m(9)));
        assert_eq!(k0, k9, "retransmits must take the original path");
        assert_eq!(
            walk(&t, NodeId(1), NodeId(6), k0),
            walk(&t, NodeId(1), NodeId(6), k9)
        );
        // Distinct VIs spread over the spines (content-keyed, not uniform).
        let spines: std::collections::BTreeSet<u32> = (0..64)
            .map(|vi| {
                let k = Topology::flow_key(
                    NodeId(1),
                    NodeId(6),
                    Some(&MsgId {
                        src_node: 1,
                        vi,
                        seq: 0,
                    }),
                );
                walk(&t, NodeId(1), NodeId(6), k)[1]
            })
            .collect();
        assert_eq!(spines.len(), 2, "ECMP must use both spines across flows");
    }

    /// Pins concrete route selections for a fixed topology: any change to
    /// the hash, salt, or tie-break order shows up here before it silently
    /// re-blesses a golden.
    #[test]
    fn route_selection_pinned_for_fixed_key() {
        let t = Topology::fat_tree(4, 2, 2, trunk(), PortLimits::default());
        let picks: Vec<u32> = (0..8u32)
            .map(|vi| {
                let k = Topology::flow_key(
                    NodeId(0),
                    NodeId(6),
                    Some(&MsgId {
                        src_node: 0,
                        vi,
                        seq: 0,
                    }),
                );
                t.routes().next_hop(0, 3, k).unwrap()
            })
            .collect();
        assert_eq!(picks, vec![4, 4, 4, 4, 4, 4, 5, 5]);
        let ctrl = Topology::flow_key(NodeId(0), NodeId(6), None);
        assert_eq!(t.routes().next_hop(0, 3, ctrl), Some(5));
    }

    #[test]
    fn compute_routes_tolerates_partition() {
        // Dumbbell with its only trunk cut: the two halves cannot reach
        // each other, and lookups say so instead of panicking.
        let t = Topology::dumbbell(4, trunk(), PortLimits::default());
        let r = t.compute_routes(&[], &[(1, 0)], 1);
        assert_eq!(r.next_hop(0, 1, 42), None);
        assert_eq!(r.next_hop(1, 0, 42), None);
        // Killing a fat-tree spine leaves the other spine carrying all
        // cross-edge routes.
        let f = Topology::fat_tree(4, 2, 2, trunk(), PortLimits::default());
        let r = f.compute_routes(&[4], &[], 1);
        for flow in 0..64u64 {
            assert_eq!(r.next_hop(0, 3, splitmix64(flow)), Some(5));
        }
        // Routes through the dead switch itself vanish.
        assert_eq!(r.next_hop(0, 4, 7), None);
        assert_eq!(r.next_hop(4, 0, 7), None);
    }

    /// Satellite: pins the *reconverged* ECMP choice for fixed flow keys —
    /// the epoch salt and failure-exclusion logic are golden-bearing, so
    /// any change to either must show up here first.
    #[test]
    fn reconverged_route_selection_pinned_for_fixed_key() {
        // 3 spines (4, 5, 6); kill spine 4 at epoch 1 → candidates {5, 6},
        // re-salted by the epoch.
        let t = Topology::fat_tree(4, 2, 3, trunk(), PortLimits::default());
        let r = t.compute_routes(&[4], &[], 1);
        let picks: Vec<u32> = (0..8u32)
            .map(|vi| {
                let k = Topology::flow_key(
                    NodeId(0),
                    NodeId(6),
                    Some(&MsgId {
                        src_node: 0,
                        vi,
                        seq: 0,
                    }),
                );
                r.next_hop(0, 3, k).expect("spines 5 and 6 survive")
            })
            .collect();
        assert_eq!(picks, vec![6, 5, 6, 6, 5, 6, 6, 6]);
        // The same failure at a later epoch re-salts again: the pick
        // vector over many flows must move, keeping epoch-folding
        // load-bearing.
        let r2 = t.compute_routes(&[4], &[], 2);
        let vec_at = |r: &Routes| -> Vec<u32> {
            (0..64u32)
                .map(|vi| {
                    let k = Topology::flow_key(
                        NodeId(0),
                        NodeId(6),
                        Some(&MsgId {
                            src_node: 0,
                            vi,
                            seq: 0,
                        }),
                    );
                    r.next_hop(0, 3, k).unwrap()
                })
                .collect()
        };
        assert_ne!(vec_at(&r), vec_at(&r2), "epoch must fold into the salt");
    }

    #[test]
    fn trunk_pairs_enumerates_normalized_sorted() {
        let d = Topology::dumbbell(4, trunk(), PortLimits::default());
        assert_eq!(d.trunk_pairs(), vec![(0, 1)]);
        let f = Topology::fat_tree(3, 2, 2, trunk(), PortLimits::default());
        assert_eq!(
            f.trunk_pairs(),
            vec![(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
        );
        assert!(Topology::star(4).trunk_pairs().is_empty());
    }

    #[test]
    fn dumbbell_shape() {
        let d = Topology::dumbbell(5, trunk(), PortLimits::default());
        assert_eq!(d.switches(), 2);
        assert_eq!(d.edge_of(2), 0);
        assert_eq!(d.edge_of(3), 1);
        assert_eq!(d.trunk_ports(), 2);
        assert_eq!(d.routes().next_hops[0][1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_topology_rejected() {
        // Two switches, no trunks.
        let edge_of = vec![0, 1];
        let ports = Topology::switch_ports(2, &edge_of, &[], trunk());
        let _ = Topology::finish("bad", 2, edge_of, ports, PortLimits::default());
    }
}
