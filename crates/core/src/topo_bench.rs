//! Multi-switch scale-out benchmarks (extension X-TOPO).
//!
//! Drives 64-node clusters over `fabric::topo` shapes — the 2-level
//! fat-tree is the headline — through three workloads:
//!
//! * **Connection storm**: 32 concurrent cross-fabric client/server
//!   pairs connect and stream, once over the one-switch star and once
//!   over the fat-tree. The star row is the control: same workload, no
//!   trunks, unbounded ports.
//! * **16-to-1 incast**: sixteen pipelined senders spread over seven
//!   edge switches converge on one receiver whose host port has tight
//!   buffer limits, so the run exercises pause queues, head-of-line
//!   blocking, and honest port drops (Reliable Delivery retransmits
//!   recover every drop). A victim flow crossing the congested
//!   spine→edge trunks and an intra-edge probe flow measure collateral
//!   damage vs. an unaffected baseline.
//! * **All-to-all**: every node sends one message to every other node
//!   (64 × 63 ordered pairs), aggregated per edge switch to show
//!   fabric-wide balance.
//!
//! Every artifact cell is virtual-time-derived or a deterministic port
//! counter, so the tables are byte-identical at any `VIBE_JOBS` value —
//! CI's golden matrix pins that. Each run ends like every suite world, in
//! [`via::Cluster::audit`]: frames conserved and every port drop
//! attributed to its port, nothing leaked on any node.

use fabric::{LinkParams, NodeId, PortLimits, PortSnapshot, PortTarget, SanStats, Topology};
use simkit::{Sim, SimDuration, SimTime, WaitMode};
use via::{registered, Cluster, Descriptor, Discriminator, Profile};

use crate::flow::{rd, run_flows, Flow};
use crate::harness::{finish_world, Stream};
use crate::report::Table;

/// Edge switches in the fat-tree.
pub const EDGES: usize = 8;
/// Hosts per edge switch (EDGES * HOSTS_PER_EDGE = 64 nodes).
pub const HOSTS_PER_EDGE: usize = 8;
/// Spine switches (each edge uplinks to every spine).
pub const SPINES: usize = 4;
/// Base seed for the X-TOPO runs.
pub const TOPO_SEED: u64 = 0x70B0;

/// The trunk link between switch tiers: 4x the host line rate, a longer
/// cable run. MTU matches the access links (the fabric forwards frames
/// whole, never re-fragments).
fn trunk() -> LinkParams {
    LinkParams {
        bandwidth_bps: 440_000_000,
        propagation: SimDuration::from_nanos(600),
        frame_overhead_bytes: 8,
        mtu: 64 * 1024,
    }
}

/// The 64-node, 2-level fat-tree every X-TOPO workload runs over.
pub fn fat_tree64(limits: PortLimits) -> Topology {
    Topology::fat_tree(EDGES, HOSTS_PER_EDGE, SPINES, trunk(), limits)
}

/// One world of a multi-node workload: a cluster on a fresh engine and
/// the label its audit reports under.
pub(crate) struct Rig {
    pub(crate) cluster: Cluster,
    label: String,
}

impl Rig {
    pub(crate) fn new(topo: Topology, seed: u64, label: impl Into<String>) -> Rig {
        Rig::new_with_profile(topo, Profile::clan(), seed, label)
    }

    /// Like [`Rig::new`] but with an explicit profile — X-CRASH runs the
    /// cLAN profile with the heartbeat watchdog enabled.
    pub(crate) fn new_with_profile(
        topo: Topology,
        profile: Profile,
        seed: u64,
        label: impl Into<String>,
    ) -> Rig {
        Rig {
            cluster: Cluster::new_topo(Sim::new(), profile, topo, seed),
            label: label.into(),
        }
    }

    /// Run to completion and finish the world ([`finish_world`]).
    pub(crate) fn run(&self) {
        self.cluster.sim().run_to_completion();
        finish_world(&self.cluster, format_args!("{}", self.label));
    }
}

// ---------------------------------------------------------------------
// Connection storm
// ---------------------------------------------------------------------

/// Nodes in the storm (32 client/server pairs).
pub const STORM_NODES: usize = 64;
/// Messages each storm client streams after connecting.
pub const STORM_MSGS: u64 = 6;

/// Which shape the storm runs over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StormShape {
    /// The single-switch star, as control.
    Star,
    /// The 64-node 2-level fat-tree.
    FatTree,
}

impl StormShape {
    fn topo(self) -> Topology {
        match self {
            StormShape::Star => Topology::star(STORM_NODES),
            StormShape::FatTree => fat_tree64(PortLimits::default()),
        }
    }

    fn label(self) -> &'static str {
        match self {
            StormShape::Star => "star-64",
            StormShape::FatTree => "fat-tree-64",
        }
    }
}

/// Outcome of one storm run.
#[derive(Clone, Debug)]
pub struct StormOutcome {
    /// Messages delivered across all pairs.
    pub delivered: u64,
    /// Payload bytes delivered across all pairs.
    pub bytes: u64,
    /// Time of the last delivery.
    pub makespan: SimDuration,
    /// Fabric counters for the run.
    pub san: SanStats,
    /// Sum of per-port pauses (0 on the star: its ports are unbounded).
    pub pauses: u64,
    /// Sum of per-port drops.
    pub port_drops: u64,
}

/// Run the connection storm: client `i` (0..32) connects across the
/// fabric to server `32 + i` and streams [`STORM_MSGS`] messages of a
/// pair-distinct size. On the fat-tree every pair crosses the spine
/// tier (nodes `i` and `i + 32` are always four edge switches apart).
/// `_shards` is ignored: every world runs on one engine.
pub fn storm(shape: StormShape, seed: u64, _shards: usize) -> StormOutcome {
    let rig = Rig::new(shape.topo(), seed, format!("topo-{}-storm", shape.label()));
    let cluster = &rig.cluster;
    let pairs = STORM_NODES / 2;
    let flows: Vec<Flow> = (0..pairs)
        .map(|i| Flow {
            src: i,
            dst: pairs + i,
            disc: i as u64,
            msgs: STORM_MSGS as usize,
            size: 2048 + 32 * i as u64,
            attrs: rd(),
            connect_at: None,
            start: SimDuration::from_nanos(3_000 + 1_237 * i as u64),
            depth: 1,
        })
        .collect();
    let traces = run_flows(
        &rig,
        &flows,
        |_, f| format!("storm-srv{}", f.dst),
        |_, f| format!("storm-cli{}", f.src),
        SimTime::MAX,
    );
    let delivered = traces.iter().map(|t| t.delivered).sum();
    let bytes = traces.iter().map(|t| t.bytes).sum();
    let last = traces
        .iter()
        .map(|t| t.last_rx)
        .max()
        .unwrap_or(SimTime::ZERO);
    let ports = cluster.san().port_stats();
    StormOutcome {
        delivered,
        bytes,
        makespan: last.duration_since(SimTime::ZERO),
        san: cluster.san().stats(),
        pauses: ports.iter().map(|p| p.stats.pauses).sum(),
        port_drops: ports.iter().map(|p| p.stats.drops).sum(),
    }
}

/// The storm comparison table: one row per shape (the star control row,
/// then the fat-tree).
pub fn storm_table(shapes: &[StormShape]) -> Table {
    let mut t = Table::new(
        format!(
            "X-TOPO: {STORM_NODES}-node connection storm, {} pairs x {STORM_MSGS} msgs",
            STORM_NODES / 2
        ),
        vec![
            "msgs".to_string(),
            "KB".to_string(),
            "makespan (us)".to_string(),
            "goodput (MB/s)".to_string(),
            "pauses".to_string(),
            "port drops".to_string(),
        ],
    );
    for &shape in shapes {
        let o = storm(shape, TOPO_SEED, 1);
        t.push(
            shape.label(),
            vec![
                o.delivered as f64,
                o.bytes as f64 / 1024.0,
                o.makespan.as_micros_f64(),
                simkit::megabytes_per_second(o.bytes, o.makespan),
                o.pauses as f64,
                o.port_drops as f64,
            ],
        );
    }
    t
}

// ---------------------------------------------------------------------
// 16-to-1 incast
// ---------------------------------------------------------------------

/// Concurrent senders converging on node 0.
pub const INCAST_SENDERS: usize = 16;
/// Messages each incast sender posts back to back (pipelined).
pub const INCAST_MSGS: usize = 12;
/// Messages of the victim and probe flows.
pub const INCAST_PROBE_MSGS: usize = 8;

/// Tight port limits for the incast fat-tree: small enough that the
/// receiver's host port pauses and then drops under the burst.
fn incast_limits() -> PortLimits {
    PortLimits {
        capacity: 4,
        pause_depth: 8,
        max_pause: None,
    }
}

/// Sender `s`'s node: round-robin over edge switches 1..=7, so the burst
/// converges through every spine→edge-0 trunk. Node 0 (the receiver),
/// the victim source (58), and the probe pair (4, 5) are never senders.
fn incast_sender_node(s: usize) -> usize {
    HOSTS_PER_EDGE * (1 + (s % (EDGES - 1))) + s / (EDGES - 1)
}

/// Per-flow receive telemetry for the incast.
#[derive(Clone, Debug)]
pub struct IncastFlow {
    /// Row label ("s03", "victim 58->1", …).
    pub label: String,
    /// Messages delivered.
    pub delivered: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// First delivery completion time.
    pub first_rx: SimTime,
    /// Last delivery completion time.
    pub last_rx: SimTime,
}

impl IncastFlow {
    /// Goodput over the flow's own first-to-last delivery span.
    pub fn goodput(&self) -> f64 {
        let span = self.last_rx.saturating_duration_since(self.first_rx);
        if span.is_zero() {
            0.0
        } else {
            simkit::megabytes_per_second(self.bytes, span)
        }
    }
}

/// Outcome of the incast run.
#[derive(Clone, Debug)]
pub struct IncastOutcome {
    /// The 16 sender flows, then the victim, then the probe.
    pub flows: Vec<IncastFlow>,
    /// Fabric counters.
    pub san: SanStats,
    /// Per-port counters (every switch port in the fat-tree).
    pub ports: Vec<PortSnapshot>,
}

/// Run the 16-to-1 incast with the victim and probe flows alongside.
/// The senders run a window of two — enough standing pressure to pause
/// and drop at the tight receiver port; victim and probe are self-paced.
/// `_shards` is ignored: every world runs on one engine.
pub fn incast(seed: u64, _shards: usize) -> IncastOutcome {
    let rig = Rig::new(fat_tree64(incast_limits()), seed, "topo-fat-tree-incast");
    let cluster = &rig.cluster;

    let mut labels: Vec<String> = (0..INCAST_SENDERS).map(|s| format!("s{s:02}")).collect();
    let mut flows: Vec<Flow> = (0..INCAST_SENDERS)
        .map(|s| {
            let pair = (incast_sender_node(s), 0);
            Flow::staggered(s, pair, 100 + s as u64, INCAST_MSGS, 8192 + 128 * s as u64)
        })
        .collect();
    let probe = |src, dst, disc, connect_at| Flow {
        src,
        dst,
        disc,
        msgs: INCAST_PROBE_MSGS,
        size: 4096,
        attrs: rd(),
        connect_at: Some(SimDuration::from_nanos(connect_at)),
        start: SimDuration::from_nanos(24_000),
        depth: 1,
    };
    // Victim: crosses the congested spine->edge-0 trunks into node 1.
    labels.push("victim 58->1".to_string());
    flows.push(probe(58, 1, 200, 18_401));
    // Probe: stays inside edge switch 0, touching no trunk.
    labels.push("probe 4->5".to_string());
    flows.push(probe(4, 5, 300, 18_731));

    let traces = run_flows(
        &rig,
        &flows,
        |i, _| format!("incast-rx-{}", labels[i]),
        |_, f| format!("incast-tx-n{}", f.src),
        SimTime::MAX,
    );
    let flows = labels
        .into_iter()
        .zip(traces)
        .map(|(label, t)| IncastFlow {
            label,
            delivered: t.delivered,
            bytes: t.bytes,
            first_rx: t.first_rx,
            last_rx: t.last_rx,
        })
        .collect();
    IncastOutcome {
        flows,
        san: cluster.san().stats(),
        ports: cluster.san().port_stats(),
    }
}

/// Classify a fat-tree port into its tier for the aggregate tables.
pub(crate) fn port_tier(snap: &PortSnapshot) -> &'static str {
    if (snap.switch as usize) < EDGES {
        match snap.target {
            PortTarget::Node(_) => "edge->host",
            PortTarget::Switch(_) => "edge->spine",
        }
    } else {
        "spine->edge"
    }
}

/// The two X-TOPO incast tables: per-flow delivery/goodput (senders,
/// victim, probe) and the per-tier port occupancy/pause/drop aggregate.
pub fn incast_tables() -> (Table, Table) {
    let o = incast(TOPO_SEED, 1);

    let mut flows = Table::new(
        format!(
            "X-TOPO: {INCAST_SENDERS}-to-1 incast on the fat-tree \
             ({INCAST_MSGS} pipelined msgs/sender, victim + probe flows)"
        ),
        vec![
            "msgs".to_string(),
            "KB".to_string(),
            "first rx (us)".to_string(),
            "last rx (us)".to_string(),
            "goodput (MB/s)".to_string(),
        ],
    );
    for f in &o.flows {
        flows.push(
            f.label.clone(),
            vec![
                f.delivered as f64,
                f.bytes as f64 / 1024.0,
                f.first_rx.as_micros_f64(),
                f.last_rx.as_micros_f64(),
                f.goodput(),
            ],
        );
    }
    flows.push(
        "fabric frames (sent/delivered/port-dropped)",
        vec![
            o.san.frames_sent as f64,
            o.san.frames_delivered as f64,
            0.0,
            0.0,
            o.san.frames_port_dropped as f64,
        ],
    );

    let mut ports = Table::new(
        "X-TOPO: incast per-tier port counters (fat-tree, tight limits)",
        vec![
            "ports".to_string(),
            "admitted".to_string(),
            "pauses".to_string(),
            "drops".to_string(),
            "hol blocked".to_string(),
            "max queued".to_string(),
            "max paused".to_string(),
        ],
    );
    for tier in ["edge->host", "edge->spine", "spine->edge"] {
        let sel: Vec<&PortSnapshot> = o.ports.iter().filter(|p| port_tier(p) == tier).collect();
        ports.push(
            tier,
            vec![
                sel.len() as f64,
                sel.iter().map(|p| p.stats.admitted).sum::<u64>() as f64,
                sel.iter().map(|p| p.stats.pauses).sum::<u64>() as f64,
                sel.iter().map(|p| p.stats.drops).sum::<u64>() as f64,
                sel.iter().map(|p| p.stats.hol_blocked).sum::<u64>() as f64,
                sel.iter().map(|p| p.stats.highwater).max().unwrap_or(0) as f64,
                sel.iter()
                    .map(|p| p.stats.pause_highwater)
                    .max()
                    .unwrap_or(0) as f64,
            ],
        );
    }
    ports.push(
        "total",
        vec![
            o.ports.len() as f64,
            o.ports.iter().map(|p| p.stats.admitted).sum::<u64>() as f64,
            o.ports.iter().map(|p| p.stats.pauses).sum::<u64>() as f64,
            o.ports.iter().map(|p| p.stats.drops).sum::<u64>() as f64,
            o.ports.iter().map(|p| p.stats.hol_blocked).sum::<u64>() as f64,
            o.ports.iter().map(|p| p.stats.highwater).max().unwrap_or(0) as f64,
            o.ports
                .iter()
                .map(|p| p.stats.pause_highwater)
                .max()
                .unwrap_or(0) as f64,
        ],
    );
    (flows, ports)
}

// ---------------------------------------------------------------------
// All-to-all
// ---------------------------------------------------------------------

/// Nodes in the all-to-all exchange.
pub const A2A_NODES: usize = 64;

/// Payload size of the `src -> dst` all-to-all message: pair-distinct so
/// serialization times (and thus arrival instants) stay tie-free.
fn a2a_size(src: usize, dst: usize) -> u64 {
    320 + 8 * ((src * 67 + dst * 29) % 41) as u64
}

/// Per-edge aggregate of the all-to-all receive telemetry.
#[derive(Clone, Debug)]
pub struct A2aEdge {
    /// Messages delivered into the edge's hosts.
    pub delivered: u64,
    /// Payload bytes delivered into the edge's hosts.
    pub bytes: u64,
    /// Earliest delivery into the edge.
    pub first_rx: SimTime,
    /// Latest delivery into the edge.
    pub last_rx: SimTime,
}

/// Outcome of the all-to-all run.
#[derive(Clone, Debug)]
pub struct A2aOutcome {
    /// Per-edge-switch aggregates, indexed by edge.
    pub per_edge: Vec<A2aEdge>,
    /// Latest delivery fabric-wide.
    pub makespan: SimDuration,
    /// Fabric counters.
    pub san: SanStats,
}

/// Run the all-to-all: every node sends one message to every other node
/// over a dedicated Reliable Delivery VI pair (64 x 63 ordered pairs).
/// Clients connect and send in ascending peer order; servers accept in
/// ascending peer order — the staircase rendezvous schedule, which is
/// deadlock-free because each node's client and server run concurrently.
/// `_shards` is ignored: every world runs on one engine.
pub fn all_to_all(seed: u64, _shards: usize) -> A2aOutcome {
    let n = A2A_NODES;
    let rig = Rig::new(
        fat_tree64(PortLimits::default()),
        seed,
        "topo-fat-tree-all-to-all",
    );
    let cluster = &rig.cluster;
    let disc = move |src: usize, dst: usize| (src * n + dst) as u64;

    let mut servers = Vec::with_capacity(n);
    for i in 0..n {
        let p = cluster.provider(i);
        let sim = cluster.sim().clone();
        servers.push(sim.spawn(format!("a2a-srv{i}"), Some(p.cpu()), move |ctx| {
            let max = (0..n)
                .filter(|&j| j != i)
                .map(|j| a2a_size(j, i))
                .max()
                .unwrap();
            let (buf, mh) = registered(ctx, &p, max);
            let mut vis = Vec::with_capacity(n - 1);
            for j in (0..n).filter(|&j| j != i) {
                let vi = p.create_vi(ctx, rd(), None, None).expect("vi");
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, max as u32))
                    .expect("post_recv");
                p.accept(ctx, &vi, Discriminator(disc(j, i)))
                    .expect("accept");
                vis.push(vi);
            }
            let mut bytes = 0u64;
            let mut first = SimTime::MAX;
            let mut last = SimTime::ZERO;
            for vi in &vis {
                let comp = vi.recv_wait(ctx, WaitMode::Poll);
                assert!(comp.is_ok(), "a2a delivery failed: {:?}", comp.status);
                bytes += comp.length;
                first = first.min(ctx.now());
                last = last.max(ctx.now());
            }
            ((n - 1) as u64, bytes, first, last)
        }));
    }

    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let p = cluster.provider(i);
        let sim = cluster.sim().clone();
        clients.push(sim.spawn(format!("a2a-cli{i}"), Some(p.cpu()), move |ctx| {
            ctx.sleep(SimDuration::from_nanos(2_000 + 937 * i as u64));
            for j in (0..n).filter(|&j| j != i) {
                let size = a2a_size(i, j);
                let vi = p.create_vi(ctx, rd(), None, None).expect("vi");
                let (buf, mh) = registered(ctx, &p, size);
                p.connect(ctx, &vi, NodeId(j as u32), Discriminator(disc(i, j)), None)
                    .expect("connect");
                Stream::new(&vi, 1, WaitMode::Poll)
                    .post(ctx, Descriptor::send().segment(buf, mh, size as u32))
                    .expect("post_send");
            }
        }));
    }

    rig.run();
    for c in clients {
        c.expect_result();
    }
    let mut per_edge: Vec<A2aEdge> = (0..EDGES)
        .map(|_| A2aEdge {
            delivered: 0,
            bytes: 0,
            first_rx: SimTime::MAX,
            last_rx: SimTime::ZERO,
        })
        .collect();
    for (i, s) in servers.into_iter().enumerate() {
        let (delivered, bytes, first, last) = s.expect_result();
        let e = &mut per_edge[i / HOSTS_PER_EDGE];
        e.delivered += delivered;
        e.bytes += bytes;
        e.first_rx = e.first_rx.min(first);
        e.last_rx = e.last_rx.max(last);
    }
    let makespan = per_edge
        .iter()
        .map(|e| e.last_rx)
        .max()
        .expect("nonempty fat-tree")
        .duration_since(SimTime::ZERO);
    A2aOutcome {
        per_edge,
        makespan,
        san: cluster.san().stats(),
    }
}

/// The all-to-all table: one aggregate row per edge switch, then totals.
pub fn all_to_all_table() -> Table {
    let o = all_to_all(TOPO_SEED, 1);
    let mut t = Table::new(
        format!(
            "X-TOPO: {A2A_NODES}-node all-to-all over the fat-tree \
             ({EDGES} edges x {HOSTS_PER_EDGE} hosts, {SPINES} spines)"
        ),
        vec![
            "msgs".to_string(),
            "KB".to_string(),
            "first rx (us)".to_string(),
            "last rx (us)".to_string(),
            "goodput (MB/s)".to_string(),
        ],
    );
    for (i, e) in o.per_edge.iter().enumerate() {
        let span = e.last_rx.saturating_duration_since(e.first_rx);
        let goodput = if span.is_zero() {
            0.0
        } else {
            simkit::megabytes_per_second(e.bytes, span)
        };
        t.push(
            format!("edge{i}"),
            vec![
                e.delivered as f64,
                e.bytes as f64 / 1024.0,
                e.first_rx.as_micros_f64(),
                e.last_rx.as_micros_f64(),
                goodput,
            ],
        );
    }
    let total_msgs: u64 = o.per_edge.iter().map(|e| e.delivered).sum();
    let total_bytes: u64 = o.per_edge.iter().map(|e| e.bytes).sum();
    t.push(
        "total",
        vec![
            total_msgs as f64,
            total_bytes as f64 / 1024.0,
            0.0,
            o.makespan.as_micros_f64(),
            simkit::megabytes_per_second(total_bytes, o.makespan),
        ],
    );
    t.push(
        "fabric frames (sent/delivered)",
        vec![
            o.san.frames_sent as f64,
            o.san.frames_delivered as f64,
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
    fn incast_sender_nodes_are_distinct_and_off_edge0() {
        let nodes: Vec<usize> = (0..INCAST_SENDERS).map(incast_sender_node).collect();
        let mut dedup = nodes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), INCAST_SENDERS);
        for &n in &nodes {
            assert!(n >= HOSTS_PER_EDGE, "sender {n} shares the receiver's edge");
            assert!(
                ![0, 1, 4, 5, 58].contains(&n),
                "sender {n} collides with a fixed role"
            );
        }
    }

    /// Weak handles on a world's fabric and on its engine (through an
    /// event hook, which only the engine owns).
    fn world_probes(san: &fabric::San, sim: &Sim) -> (fabric::WeakSan, std::sync::Weak<()>) {
        let owned = std::sync::Arc::new(());
        let engine = std::sync::Arc::downgrade(&owned);
        sim.set_event_hook(Some(std::sync::Arc::new(move |_, _| {
            let _ = &owned;
        })));
        (san.downgrade(), engine)
    }

    /// Regression test for the `Provider -> San -> handler -> Provider`
    /// cycle that used to keep every simulated world alive forever.
    #[test]
    fn finished_worlds_are_freed() {
        use crate::harness::{ping_pong_on, DtConfig, Pair};
        let cfg = DtConfig {
            iters: 10,
            warmup: 2,
            ..DtConfig::base(Profile::clan(), 64)
        };
        let pair = Pair::new(&cfg);
        let (san, engine) = world_probes(&pair.san(), pair.sim());
        assert!(ping_pong_on(&pair, &cfg, false).0.latency_us > 0.0);
        assert!(san.upgrade().is_some());
        drop(pair);
        assert!(san.upgrade().is_none(), "ping-pong fabric leaked");
        assert!(engine.upgrade().is_none(), "ping-pong engine leaked");

        let rig = Rig::new(fat_tree64(PortLimits::default()), 7, "leak-probe");
        let sim = rig.cluster.sim().clone();
        let (san, engine) = world_probes(rig.cluster.san(), &sim);
        let (a, b) = (rig.cluster.provider(0), rig.cluster.provider(32));
        sim.spawn("srv", Some(b.cpu()), move |ctx| {
            let vi = b.create_vi(ctx, rd(), None, None).expect("vi");
            b.accept(ctx, &vi, Discriminator(1)).expect("accept");
        });
        sim.spawn("cli", Some(a.cpu()), move |ctx| {
            let vi = a.create_vi(ctx, rd(), None, None).expect("vi");
            a.connect(ctx, &vi, NodeId(32), Discriminator(1), None)
                .expect("connect");
        });
        rig.run();
        drop((rig, sim));
        assert!(san.upgrade().is_none(), "fat-tree fabric leaked");
        assert!(engine.upgrade().is_none(), "fat-tree engine leaked");
    }

    #[test]
    fn storm_delivers_everything_on_both_shapes() {
        for shape in [StormShape::Star, StormShape::FatTree] {
            let o = storm(shape, 7, 1);
            assert_eq!(o.delivered, (STORM_NODES as u64 / 2) * STORM_MSGS);
            assert!(o.makespan > SimDuration::ZERO);
            assert_eq!(o.san.frames_dropped, 0);
            if shape == StormShape::Star {
                assert_eq!(o.pauses, 0);
                assert_eq!(o.port_drops, 0);
            }
        }
    }

    #[test]
    fn incast_backpressure_engages_and_probe_outruns_victim() {
        let o = incast(TOPO_SEED, 1);
        let pauses: u64 = o.ports.iter().map(|p| p.stats.pauses).sum();
        assert!(pauses > 0, "tight incast limits must engage backpressure");
        let victim = o
            .flows
            .iter()
            .find(|f| f.label.starts_with("victim"))
            .unwrap();
        let probe = o
            .flows
            .iter()
            .find(|f| f.label.starts_with("probe"))
            .unwrap();
        assert_eq!(victim.delivered, INCAST_PROBE_MSGS as u64);
        assert_eq!(probe.delivered, INCAST_PROBE_MSGS as u64);
        assert!(
            probe.goodput() > victim.goodput(),
            "intra-edge probe ({:.1} MB/s) must outrun the trunk-crossing victim ({:.1} MB/s)",
            probe.goodput(),
            victim.goodput()
        );
    }

    #[test]
    fn all_to_all_delivers_everything() {
        let o = all_to_all(TOPO_SEED, 1);
        let total: u64 = o.per_edge.iter().map(|e| e.delivered).sum();
        assert_eq!(total, (A2A_NODES * (A2A_NODES - 1)) as u64);
        for e in &o.per_edge {
            assert_eq!(e.delivered, (HOSTS_PER_EDGE * (A2A_NODES - 1)) as u64);
        }
    }
}
