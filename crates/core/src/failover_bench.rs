//! Fault-domain failover benchmarks (extension X-FAILOVER).
//!
//! Drives the fat-tree's switch-scoped fault machinery end to end — the
//! robustness counterpart to X-TOPO's steady-state scale-out:
//!
//! * **Spine kill**: twelve cross-edge Reliable Delivery flows stream
//!   through the 64-node fat-tree while a scripted [`fabric::FaultPlan`]
//!   kills one spine switch mid-stream. Frames in the dead spine's FIFOs
//!   are flushed (the honest `fault_dropped` bucket) and frames routed at
//!   it during the detection window are refused; after the fabric's
//!   detection + reconvergence delay the flow-keyed ECMP re-salts onto
//!   the surviving spines and RTO-driven retransmits recover every drop.
//!   The artifact reports each flow's stall (longest inter-delivery gap)
//!   and the count of deliveries completed after the kill — every flow
//!   must keep delivering on the reconverged paths.
//! * **Pause cascade**: twenty-four senders converge on the eight hosts
//!   of edge 0 under tight port limits with a PFC-style pause-storm
//!   watchdog armed (`PortLimits::max_pause`). Host-port congestion backs
//!   up across the spine→edge trunks into a multi-tier pause cascade; the
//!   watchdog bounds how long any port may stay continuously paused,
//!   trips (`storm_trips`), and sheds the paused backlog (`storm_dropped`
//!   — honest port-attributed drops that Reliable Delivery recovers).
//!
//! Every artifact cell is virtual-time-derived or a deterministic
//! counter, so the tables are byte-identical at any `VIBE_JOBS` /
//! `VIBE_FUSE` value — CI's golden matrix pins that (with
//! switch faults installed the fused fast path de-fuses with
//! [`simkit::DefuseCause::Reroute`], so fused and unfused runs are
//! identical by construction). Each run ends, like every suite world, in
//! [`via::Cluster::audit`], whose fabric laws cover the fault domains:
//! every frame sent is delivered or in exactly one drop bucket
//! (fault-drop included), and every port and storm drop is attributed to
//! its port. Design notes: DESIGN.md §4.7.

use fabric::{FaultPlan, PortLimits, PortSnapshot, SanStats, REROUTE_DELAY};
use simkit::{SimDuration, SimTime};

use crate::flow::{run_flows, Flow};
use crate::report::Table;
use crate::topo_bench::{fat_tree64, port_tier, EDGES, HOSTS_PER_EDGE};

/// Base seed for the X-FAILOVER runs.
pub const FAILOVER_SEED: u64 = 0xFA11;

/// Cross-edge flows streaming through the spine kill.
pub const KILL_FLOWS: usize = 12;
/// Messages each kill-workload flow streams.
pub const KILL_MSGS: usize = 24;
/// The spine the fault plan kills (switch ids: 0..EDGES edges, then
/// EDGES..EDGES+SPINES spines).
pub const KILLED_SPINE: u32 = (EDGES + 2) as u32;

/// Senders converging on edge 0 in the pause cascade.
pub const CASCADE_SENDERS: usize = 24;
/// Messages each cascade sender streams.
pub const CASCADE_MSGS: usize = 10;
/// The watchdog's per-port bound on consecutive pause time.
pub const CASCADE_MAX_PAUSE: SimDuration = SimDuration::from_micros(60);

/// Stall classification floor: well above the ~57 us steady-state
/// inter-delivery gap, well below the RTO-sized (~1 ms) failover stall a
/// flow pays when the kill eats its frames.
pub const STALL_FLOOR: SimDuration = SimDuration::from_micros(200);

/// When the spine dies: mid-stream. Connection establishment costs the
/// cLAN profile ~2.4 ms of host time, so the flows stream from roughly
/// 2.4 ms to 3.5 ms; the kill lands squarely inside that span.
fn kill_at() -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(2_700)
}

/// How long the spine stays dead.
fn kill_duration() -> SimDuration {
    SimDuration::from_micros(500)
}

/// Kill-workload flow `f`'s endpoints: sources on edges 1..=6, each
/// destination four edges away, host indices chosen so no node plays two
/// roles. Every pair crosses the spine tier.
fn kill_flow_pair(f: usize) -> (usize, usize) {
    let src_edge = 1 + (f % 6);
    let dst_edge = (src_edge + 4) % EDGES;
    let src = HOSTS_PER_EDGE * src_edge + f / 6;
    let dst = HOSTS_PER_EDGE * dst_edge + 4 + f / 6;
    (src, dst)
}

/// Payload size of kill-workload flow `f` (flow-distinct, tie-free).
fn kill_flow_size(f: usize) -> u64 {
    2048 + 64 * f as u64
}

/// Per-flow telemetry from the spine-kill workload.
#[derive(Clone, Debug)]
pub struct FailoverFlow {
    /// Row label ("f03 9->61", …).
    pub label: String,
    /// Messages delivered.
    pub delivered: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Last delivery completion time.
    pub last_rx: SimTime,
    /// Longest gap between consecutive deliveries (the failover stall:
    /// RTO-sized for flows that lost frames to the dead spine, one
    /// message service time otherwise).
    pub stall: SimDuration,
    /// Deliveries completed after the kill instant — the reconverged
    /// path carried them, so this must be positive for every flow.
    pub post_kill: u64,
}

/// Outcome of the spine-kill run.
#[derive(Clone, Debug)]
pub struct FailoverOutcome {
    /// The twelve flows, in flow order.
    pub flows: Vec<FailoverFlow>,
    /// Fabric counters.
    pub san: SanStats,
    /// Per-port counters.
    pub ports: Vec<PortSnapshot>,
}

/// Run the spine-kill workload: stream [`KILL_FLOWS`] cross-edge flows,
/// kill [`KILLED_SPINE`] at `kill_at` for `kill_duration`, and let
/// reroute + retransmission carry every flow to completion.
pub fn spine_kill(seed: u64) -> FailoverOutcome {
    let rig = crate::topo_bench::Rig::new(
        fat_tree64(PortLimits::default()),
        seed,
        "failover-spine-kill",
    );
    let cluster = &rig.cluster;
    let plan = FaultPlan::new().switch_down(KILLED_SPINE, kill_at(), kill_duration());
    cluster.san().install_faults(&plan);

    // The burst's window of two keeps frames in flight across the kill
    // instant without overrunning the default port limits.
    let flows: Vec<Flow> = (0..KILL_FLOWS)
        .map(|f| Flow::staggered(f, kill_flow_pair(f), f as u64, KILL_MSGS, kill_flow_size(f)))
        .collect();
    let traces = run_flows(
        &rig,
        &flows,
        |f, _| format!("failover-rx-f{f}"),
        |f, _| format!("failover-tx-f{f}"),
        kill_at(),
    );
    let flows = flows
        .iter()
        .zip(traces)
        .enumerate()
        .map(|(f, (flow, t))| FailoverFlow {
            label: format!("f{f:02} {}->{}", flow.src, flow.dst),
            delivered: t.delivered,
            bytes: t.bytes,
            last_rx: t.last_rx,
            stall: t.max_gap,
            post_kill: t.after_mark,
        })
        .collect();
    FailoverOutcome {
        flows,
        san: cluster.san().stats(),
        ports: cluster.san().port_stats(),
    }
}

/// The spine-kill tables: per-flow delivery/stall telemetry and the
/// failover summary (fault timeline + drop accounting).
pub fn spine_kill_tables() -> (Table, Table) {
    let o = spine_kill(FAILOVER_SEED);
    for f in &o.flows {
        assert_eq!(
            f.delivered, KILL_MSGS as u64,
            "{}: failover must not strand messages",
            f.label
        );
        assert!(
            f.post_kill > 0,
            "{}: no deliveries after the spine kill — reroute failed",
            f.label
        );
    }
    assert!(
        o.san.frames_fault_dropped > 0,
        "the kill must catch frames in flight"
    );

    let mut flows = Table::new(
        format!(
            "X-FAILOVER: {KILL_FLOWS} cross-edge flows through a spine kill \
             (spine {KILLED_SPINE} down {}-{} us, reroute 20+30 us)",
            kill_at().as_micros_f64(),
            (kill_at() + kill_duration()).as_micros_f64()
        ),
        vec![
            "msgs".to_string(),
            "KB".to_string(),
            "last rx (us)".to_string(),
            "stall (us)".to_string(),
            "post-kill msgs".to_string(),
        ],
    );
    for f in &o.flows {
        flows.push(
            f.label.clone(),
            vec![
                f.delivered as f64,
                f.bytes as f64 / 1024.0,
                f.last_rx.as_micros_f64(),
                f.stall.as_micros_f64(),
                f.post_kill as f64,
            ],
        );
    }

    let port_faulted: u64 = o.ports.iter().map(|p| p.stats.fault_dropped).sum();
    let mut summary = Table::new(
        "X-FAILOVER: spine-kill fault timeline & drop accounting",
        vec!["value".to_string()],
    );
    summary.push("kill at (us)", vec![kill_at().as_micros_f64()]);
    summary.push(
        "reroute converged (us)",
        vec![(kill_at() + REROUTE_DELAY).as_micros_f64()],
    );
    summary.push(
        "failback converged (us)",
        vec![(kill_at() + kill_duration() + REROUTE_DELAY).as_micros_f64()],
    );
    summary.push("frames sent", vec![o.san.frames_sent as f64]);
    summary.push("frames delivered", vec![o.san.frames_delivered as f64]);
    summary.push(
        "frames fault-dropped",
        vec![o.san.frames_fault_dropped as f64],
    );
    summary.push("  of which port-attributed", vec![port_faulted as f64]);
    summary.push(
        "frames port-dropped",
        vec![o.san.frames_port_dropped as f64],
    );
    summary.push(
        "flows stalled > 200 us",
        vec![o.flows.iter().filter(|f| f.stall > STALL_FLOOR).count() as f64],
    );
    (flows, summary)
}

/// Cascade sender `s`'s node: hosts 0..=2 of edges 1..=7 — off edge 0,
/// so every flow crosses the spine tier into the congested edge.
fn cascade_sender_node(s: usize) -> usize {
    HOSTS_PER_EDGE * (1 + (s % (EDGES - 1))) + s / (EDGES - 1)
}

/// Payload size of cascade flow `s` (flow-distinct, tie-free).
fn cascade_size(s: usize) -> u64 {
    1024 + 32 * s as u64
}

/// Tight limits with the watchdog armed: ports pause early and a paused
/// port that stays continuously paused past [`CASCADE_MAX_PAUSE`] trips.
fn cascade_limits() -> PortLimits {
    PortLimits {
        capacity: 2,
        pause_depth: 4,
        max_pause: Some(CASCADE_MAX_PAUSE),
    }
}

/// Outcome of the pause-cascade run.
#[derive(Clone, Debug)]
pub struct CascadeOutcome {
    /// Messages delivered across all flows.
    pub delivered: u64,
    /// Latest delivery.
    pub last_rx: SimTime,
    /// Fabric counters.
    pub san: SanStats,
    /// Per-port counters.
    pub ports: Vec<PortSnapshot>,
}

/// Run the pause cascade: [`CASCADE_SENDERS`] pipelined senders converge
/// on edge 0's eight hosts under `cascade_limits`; the watchdog trips
/// on ports that stay paused past the bound and sheds their backlog.
pub fn pause_cascade(seed: u64) -> CascadeOutcome {
    let rig =
        crate::topo_bench::Rig::new(fat_tree64(cascade_limits()), seed, "failover-pause-cascade");
    let cluster = &rig.cluster;

    let flows: Vec<Flow> = (0..CASCADE_SENDERS)
        .map(|s| {
            let pair = (cascade_sender_node(s), s % HOSTS_PER_EDGE);
            Flow::staggered(s, pair, 400 + s as u64, CASCADE_MSGS, cascade_size(s))
        })
        .collect();
    let traces = run_flows(
        &rig,
        &flows,
        |s, _| format!("cascade-rx-s{s}"),
        |s, _| format!("cascade-tx-s{s}"),
        SimTime::MAX,
    );
    let delivered = traces.iter().map(|t| t.delivered).sum();
    let last = traces
        .iter()
        .map(|t| t.last_rx)
        .max()
        .unwrap_or(SimTime::ZERO);
    CascadeOutcome {
        delivered,
        last_rx: last,
        san: cluster.san().stats(),
        ports: cluster.san().port_stats(),
    }
}

/// The pause-cascade table: per-tier pause/storm counters plus totals.
pub fn pause_cascade_table() -> Table {
    let o = pause_cascade(FAILOVER_SEED);
    assert_eq!(
        o.delivered,
        (CASCADE_SENDERS * CASCADE_MSGS) as u64,
        "Reliable Delivery must recover every storm-shed frame"
    );
    let trips: u64 = o.ports.iter().map(|p| p.stats.storm_trips).sum();
    let shed: u64 = o.ports.iter().map(|p| p.stats.storm_dropped).sum();
    assert!(trips > 0, "the cascade must trip the watchdog");
    assert!(shed > 0, "a trip must shed the paused backlog");
    // The watchdog bound: a port's pause streak is re-examined every time
    // a departure frees buffer space, so the recorded maximum can overrun
    // the bound by at most one frame service time (largest cascade frame
    // on the host link, the slowest hop) plus the switch latency.
    let net = via::Profile::clan().net;
    let largest = cascade_size(CASCADE_SENDERS - 1) as u32 + via::Profile::clan().frag_header_bytes;
    let granule = net.link.serialization(largest) + net.switch.latency;
    let bound_ns = CASCADE_MAX_PAUSE.as_nanos();
    for p in &o.ports {
        assert!(
            p.stats.max_pause_ns <= bound_ns + granule.as_nanos(),
            "switch {} port {:?}: pause streak {} ns exceeds bound {} ns + granule {} ns",
            p.switch,
            p.target,
            p.stats.max_pause_ns,
            bound_ns,
            granule.as_nanos()
        );
    }

    let mut t = Table::new(
        format!(
            "X-FAILOVER: {CASCADE_SENDERS}-to-{HOSTS_PER_EDGE} pause cascade \
             (capacity 2 / pause 4, watchdog bound {} us)",
            CASCADE_MAX_PAUSE.as_micros_f64()
        ),
        vec![
            "ports".to_string(),
            "pauses".to_string(),
            "storm trips".to_string(),
            "storm shed".to_string(),
            "drops".to_string(),
            "max pause (us)".to_string(),
        ],
    );
    for tier in ["edge->host", "edge->spine", "spine->edge"] {
        let sel: Vec<&PortSnapshot> = o.ports.iter().filter(|p| port_tier(p) == tier).collect();
        t.push(
            tier,
            vec![
                sel.len() as f64,
                sel.iter().map(|p| p.stats.pauses).sum::<u64>() as f64,
                sel.iter().map(|p| p.stats.storm_trips).sum::<u64>() as f64,
                sel.iter().map(|p| p.stats.storm_dropped).sum::<u64>() as f64,
                sel.iter().map(|p| p.stats.drops).sum::<u64>() as f64,
                sel.iter().map(|p| p.stats.max_pause_ns).max().unwrap_or(0) as f64 / 1e3,
            ],
        );
    }
    t.push(
        "total",
        vec![
            o.ports.len() as f64,
            o.ports.iter().map(|p| p.stats.pauses).sum::<u64>() as f64,
            trips as f64,
            shed as f64,
            o.ports.iter().map(|p| p.stats.drops).sum::<u64>() as f64,
            o.ports
                .iter()
                .map(|p| p.stats.max_pause_ns)
                .max()
                .unwrap_or(0) as f64
                / 1e3,
        ],
    );
    t.push(
        "delivered msgs / last rx (us)",
        vec![
            o.delivered as f64,
            o.last_rx.as_micros_f64(),
            0.0,
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
    fn kill_flow_pairs_are_distinct_and_cross_edge() {
        let mut nodes = Vec::new();
        for f in 0..KILL_FLOWS {
            let (src, dst) = kill_flow_pair(f);
            assert_ne!(
                src / HOSTS_PER_EDGE,
                dst / HOSTS_PER_EDGE,
                "flow {f} must cross edges"
            );
            nodes.push(src);
            nodes.push(dst);
        }
        let mut dedup = nodes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), nodes.len(), "no node plays two roles");
    }

    #[test]
    fn cascade_senders_avoid_edge0() {
        let nodes: Vec<usize> = (0..CASCADE_SENDERS).map(cascade_sender_node).collect();
        let mut dedup = nodes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), CASCADE_SENDERS);
        for &n in &nodes {
            assert!(n >= HOSTS_PER_EDGE, "sender {n} sits on the victim edge");
        }
    }

    #[test]
    fn spine_kill_recovers_every_flow() {
        let o = spine_kill(FAILOVER_SEED);
        assert!(
            o.san.frames_fault_dropped > 0,
            "the kill must catch frames in flight: {:?}",
            o.san
        );
        for f in &o.flows {
            assert_eq!(f.delivered, KILL_MSGS as u64, "{}", f.label);
            assert!(f.post_kill > 0, "{}: must deliver after the kill", f.label);
        }
        // At least one flow was routed through the dead spine and paid an
        // RTO-sized stall before recovering on the reconverged path.
        assert!(
            o.flows.iter().any(|f| f.stall > STALL_FLOOR),
            "no flow stalled — the kill never intersected a routed path"
        );
    }

    #[test]
    fn pause_cascade_trips_watchdog() {
        let o = pause_cascade(FAILOVER_SEED);
        let trips: u64 = o.ports.iter().map(|p| p.stats.storm_trips).sum();
        assert!(trips > 0, "watchdog must trip");
        assert_eq!(o.delivered, (CASCADE_SENDERS * CASCADE_MSGS) as u64);
    }
}
