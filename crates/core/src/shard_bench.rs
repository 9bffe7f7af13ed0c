//! Ring benchmark (extension X-SHARD).
//!
//! An 8-node ring over a one-switch star where every node streams
//! messages to its successor over a connected VI while receiving from its
//! predecessor. The artifact reports only virtual-time quantities
//! (per-node delivery counts and times, goodput, SAN counters). The id,
//! module name and title survive from a since-deleted parallel engine
//! this ring once exercised; they are kept so the artifact's bytes do not
//! move.
//!
//! Client starts are staggered by odd per-node offsets so no two nodes
//! inject at the same nanosecond: the ring stays tie-free.

use fabric::{SanStats, Topology};
use simkit::{SimDuration, SimTime};
use via::{Profile, ViAttributes};

use crate::flow::{spawn_rx, spawn_tx, Flow};
use crate::report::Table;
use crate::topo_bench::Rig;

/// Nodes in the ring.
pub const RING_NODES: usize = 8;
/// Messages each node sends to its successor.
pub const RING_MSGS: u64 = 48;
/// Message payload size in bytes.
pub const RING_SIZE: u64 = 1024;

/// Per-node delivery telemetry (all virtual-time).
#[derive(Clone, Debug)]
pub struct RingNode {
    /// Messages fully delivered into this node.
    pub delivered: u64,
    /// Payload bytes delivered into this node.
    pub bytes: u64,
    /// Completion time of the node's first delivery.
    pub first_rx: SimTime,
    /// Completion time of the node's last delivery.
    pub last_rx: SimTime,
}

/// Outcome of one ring run.
#[derive(Clone, Debug)]
pub struct RingOutcome {
    /// Per-node delivery telemetry, indexed by node.
    pub per_node: Vec<RingNode>,
    /// Latest `last_rx` across the ring (start of time to all-delivered).
    pub makespan: SimDuration,
    /// Fabric counters for the whole run.
    pub san: SanStats,
}

/// Run the ring. `_shards` is ignored: every world runs on one engine.
pub fn ring(
    profile: Profile,
    nodes: usize,
    msgs: u64,
    size: u64,
    seed: u64,
    _shards: usize,
) -> RingOutcome {
    assert!(nodes >= 2, "a ring needs at least two nodes");
    let label = format!("{}-ring", profile.name);
    let rig = Rig::new_with_profile(Topology::star(nodes), profile, seed, label);
    let cluster = &rig.cluster;
    // Node `i` streams to its successor, self-paced, after a staggered,
    // tie-breaking start offset.
    let flows: Vec<Flow> = (0..nodes)
        .map(|i| Flow {
            src: i,
            dst: (i + 1) % nodes,
            disc: ((i + 1) % nodes) as u64,
            msgs: msgs as usize,
            size,
            attrs: ViAttributes::default(),
            connect_at: None,
            start: SimDuration::from_nanos(5_000 + 1_713 * i as u64),
            depth: 1,
        })
        .collect();
    // Receivers spawn in node order: node `i` hosts flow `i - 1`'s.
    let servers: Vec<_> = (0..nodes)
        .map(|i| {
            let f = &flows[(i + nodes - 1) % nodes];
            spawn_rx(cluster, f, format!("ring-srv{i}"), SimTime::MAX)
        })
        .collect();
    let clients: Vec<_> = flows
        .iter()
        .map(|f| spawn_tx(cluster, f, format!("ring-cli{}", f.src)))
        .collect();

    rig.run();
    for c in clients {
        c.expect_result();
    }
    let per_node: Vec<RingNode> = servers
        .into_iter()
        .map(|s| {
            let t = s.expect_result();
            RingNode {
                delivered: t.delivered,
                bytes: t.bytes,
                first_rx: t.first_rx,
                last_rx: t.last_rx,
            }
        })
        .collect();
    let makespan = per_node
        .iter()
        .map(|n| n.last_rx)
        .max()
        .expect("nonempty ring")
        .duration_since(SimTime::ZERO);
    RingOutcome {
        per_node,
        makespan,
        san: cluster.san().stats(),
    }
}

/// The X-SHARD table for one profile: per-node delivery rows plus ring
/// totals.
pub fn ring_table(profile: Profile) -> Table {
    let name = profile.name;
    let outcome = ring(profile, RING_NODES, RING_MSGS, RING_SIZE, 0x5A4D, 1);
    let mut t = Table::new(
        format!("X-SHARD: {RING_NODES}-node ring, {RING_MSGS} x {RING_SIZE} B per hop ({name})"),
        vec![
            "msgs".to_string(),
            "KB".to_string(),
            "first rx (us)".to_string(),
            "last rx (us)".to_string(),
            "goodput (MB/s)".to_string(),
        ],
    );
    for (i, n) in outcome.per_node.iter().enumerate() {
        let span = n.last_rx.saturating_duration_since(n.first_rx);
        let goodput = if span.is_zero() {
            0.0
        } else {
            simkit::megabytes_per_second(n.bytes, span)
        };
        t.push(
            format!("node{i}"),
            vec![
                n.delivered as f64,
                n.bytes as f64 / 1024.0,
                n.first_rx.as_micros_f64(),
                n.last_rx.as_micros_f64(),
                goodput,
            ],
        );
    }
    let total_msgs: u64 = outcome.per_node.iter().map(|n| n.delivered).sum();
    let total_bytes: u64 = outcome.per_node.iter().map(|n| n.bytes).sum();
    let aggregate = simkit::megabytes_per_second(total_bytes, outcome.makespan);
    t.push(
        "ring total",
        vec![
            total_msgs as f64,
            total_bytes as f64 / 1024.0,
            0.0,
            outcome.makespan.as_micros_f64(),
            aggregate,
        ],
    );
    t.push(
        "fabric frames (sent/delivered)",
        vec![
            outcome.san.frames_sent as f64,
            outcome.san.frames_delivered as f64,
            0.0,
            0.0,
            0.0,
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_delivers_everything() {
        let o = ring(Profile::clan(), 4, 12, 512, 7, 1);
        assert_eq!(o.per_node.len(), 4);
        for n in &o.per_node {
            assert_eq!(n.delivered, 12);
            assert_eq!(n.bytes, 12 * 512);
            assert!(n.first_rx <= n.last_rx);
        }
        assert!(o.makespan > SimDuration::ZERO);
        assert_eq!(o.san.frames_dropped, 0);
    }
}
