//! Node fault domains & session recovery (extension X-CRASH).
//!
//! Kills a host mid-stream on the 64-node fat-tree and measures the full
//! recovery stack the robustness PRs grew:
//!
//! * **Node kill**: six session flows ([`via::SessionSender`] /
//!   [`via::SessionReceiver`]) stream while a scripted
//!   [`fabric::FaultPlan::node_down`] crashes one host that terminates
//!   three of them. The victim's NIC rings, translation tables, and VI
//!   state are wiped at window open; in-flight frames drain to the honest
//!   per-node `fault_dropped` bucket; at window close the node reboots
//!   with a freshly initialized provider. Surviving peers detect the
//!   crash through the heartbeat watchdog
//!   ([`via::HeartbeatParams`], `ConnState::Error { cause: PeerDown }`),
//!   reconnect with capped content-keyed backoff, and replay their
//!   bounded journals; epoch + sequence dedup on the receivers turns the
//!   at-least-once replay into exactly-once delivery.
//! * The artifact reports per-flow goodput dip (longest inter-delivery
//!   gap), post-crash deliveries, replay/reconnect/dedup counters, and a
//!   crash timeline: watchdog detection latency per affected flow,
//!   reconnect-storm size, and the victim's fault-drop accounting.
//!
//! Every cell is virtual-time-derived or a deterministic counter, so the
//! tables are byte-identical at any `VIBE_JOBS` / `VIBE_FUSE` value — the
//! fused fast path de-fuses (`DefuseCause::NodeFault`) whenever node
//! faults are installed. Each run ends with the session-conservation
//! oracle (every message delivered exactly once, in order, zero losses
//! and zero duplicates across the kill) on top of the audit every suite
//! world ends in ([`via::Cluster::audit`], run by the shared rig). Design
//! notes: DESIGN.md §4.8.
//!
//! [`recovery_probe`] is the same machinery folded into a seed-derived
//! randomized scenario on a small 8-node tree — the property test
//! `tests/session_recovery.rs` sweeps it over arbitrary crash/loss
//! plans.

use fabric::{FaultPlan, LinkParams, NodeId, PortLimits, SanStats, Topology};
use simkit::{SimDuration, SimRng, SimTime};
use via::{Discriminator, HeartbeatParams, Profile, SessionReceiver, SessionSender, SessionStats};

use crate::report::Table;
use crate::topo_bench::{fat_tree64, Rig, HOSTS_PER_EDGE};

/// Base seed for the X-CRASH runs.
pub const CRASH_SEED: u64 = 0xC7A8;

/// Session flows streaming through the kill.
pub const CRASH_FLOWS: usize = 6;
/// Flows whose receiver sits on the victim node (the rest are bystanders
/// on untouched nodes — their sessions must sail through undisturbed).
pub const AFFECTED_FLOWS: usize = 3;
/// Messages each flow streams.
pub const CRASH_MSGS: u64 = 36;
/// The host the fault plan kills (edge 2, host 4).
pub const VICTIM: usize = 20;

/// When the node dies: mid-stream. Session setup costs the cLAN profile
/// ~2.4 ms of host time, so the flows stream from roughly 2.5 ms to
/// ~4 ms; the kill lands squarely inside that span.
fn crash_at() -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(2_800)
}

/// How long the node stays dead before rebooting.
fn crash_duration() -> SimDuration {
    SimDuration::from_micros(600)
}

/// The keepalive watchdog every X-CRASH endpoint runs.
fn hb() -> HeartbeatParams {
    HeartbeatParams::fast()
}

/// cLAN with the heartbeat watchdog enabled — the paper profiles ship
/// with heartbeats off (golden-safe), so X-CRASH opts in explicitly.
fn crash_profile() -> Profile {
    let mut p = Profile::clan();
    p.heartbeat = Some(hb());
    p
}

/// Flow `f`'s endpoints. Affected flows terminate on [`VICTIM`]; the
/// bystanders cross between untouched edges. No node plays two roles
/// except the victim (which hosts all three affected receivers — that is
/// the reconnect storm).
fn flow_pair(f: usize) -> (usize, usize) {
    if f < AFFECTED_FLOWS {
        (HOSTS_PER_EDGE * (4 + f) + f, VICTIM)
    } else {
        let g = f - AFFECTED_FLOWS;
        (HOSTS_PER_EDGE * (1 + g) + 6, HOSTS_PER_EDGE * (5 + g) + 7)
    }
}

/// Inter-send pacing of flow `f` (flow-distinct, tie-free).
fn flow_gap(f: usize) -> SimDuration {
    SimDuration::from_nanos(30_000 + 1_069 * f as u64)
}

/// The payload of flow `f`'s message `i` — content-checked on delivery,
/// so the exactly-once oracle verifies bytes, not just counts.
fn payload(f: usize, i: u64) -> Vec<u8> {
    format!("x-crash f{f:02} m{i:03}").into_bytes()
}

/// Per-flow telemetry from the node-kill workload.
#[derive(Clone, Debug)]
pub struct CrashFlow {
    /// Row label ("f00 32->20*", victim-terminating flows starred).
    pub label: String,
    /// The flow's receiver sits on the killed node.
    pub affected: bool,
    /// Messages delivered exactly once.
    pub delivered: u64,
    /// Deliveries completed after the kill instant.
    pub post_crash: u64,
    /// Longest gap between consecutive deliveries (the goodput dip:
    /// crash + detection + reconnect + replay for affected flows, one
    /// pacing interval otherwise).
    pub stall: SimDuration,
    /// Last delivery completion time (goodput recovery).
    pub last_rx: SimTime,
    /// Sender-side session counters.
    pub tx: SessionStats,
    /// Receiver-side session counters.
    pub rx: SessionStats,
}

/// Outcome of the node-kill run.
#[derive(Clone, Debug)]
pub struct CrashOutcome {
    /// The flows, in flow order.
    pub flows: Vec<CrashFlow>,
    /// Per affected flow: when its sender's heartbeat watchdog first
    /// declared the peer down (20 us poll granularity).
    pub detection: Vec<SimTime>,
    /// Fabric counters.
    pub san: SanStats,
    /// Frames the fault window drained at the victim node.
    pub victim_dropped: u64,
    /// Crash wipes the victim's provider counted (node_down windows).
    pub node_crashes: u64,
    /// Sessions that survived at least one reconnect.
    pub sessions_recovered: u64,
}

/// Run the node-kill workload: stream [`CRASH_FLOWS`] session flows,
/// kill [`VICTIM`] at `crash_at` for `crash_duration`, and let the
/// heartbeat watchdog + session recovery carry every flow to completion.
/// Panics if any conservation oracle fails — the session oracle (every
/// message exactly once, in order, zero losses, zero duplicates
/// delivered) plus the world's audit, via the shared rig runner.
/// `_shards` is ignored: every world runs on one engine.
pub fn node_kill(seed: u64, _shards: usize) -> CrashOutcome {
    let rig = Rig::new_with_profile(
        fat_tree64(PortLimits::default()),
        crash_profile(),
        seed,
        "crash-node-kill",
    );
    let cluster = &rig.cluster;
    cluster.san().install_faults(&FaultPlan::new().node_down(
        NodeId(VICTIM as u32),
        crash_at(),
        crash_duration(),
    ));

    let mut rx = Vec::with_capacity(CRASH_FLOWS);
    for f in 0..CRASH_FLOWS {
        let (_, dst) = flow_pair(f);
        let p = cluster.provider(dst);
        let sim = cluster.sim().clone();
        rx.push(
            sim.spawn(format!("crash-rx-f{f}"), Some(p.cpu()), move |ctx| {
                let mut r = SessionReceiver::new(&p, ctx, Discriminator(700 + f as u64))
                    .expect("session receiver");
                let mut got: Vec<Vec<u8>> = Vec::new();
                let mut prev: Option<SimTime> = None;
                let mut stall = SimDuration::ZERO;
                let mut post_crash = 0u64;
                let mut last = SimTime::ZERO;
                while let Some(msg) = r.recv(ctx) {
                    let now = ctx.now();
                    if let Some(prev) = prev {
                        stall = stall.max(now.duration_since(prev));
                    }
                    prev = Some(now);
                    last = last.max(now);
                    if now > crash_at() {
                        post_crash += 1;
                    }
                    got.push(msg);
                }
                let stats = r.close(ctx);
                (got, stall, post_crash, last, stats)
            }),
        );
    }

    let mut tx = Vec::with_capacity(CRASH_FLOWS);
    for f in 0..CRASH_FLOWS {
        let (src, dst) = flow_pair(f);
        let p = cluster.provider(src);
        let sim = cluster.sim().clone();
        tx.push(
            sim.spawn(format!("crash-tx-f{f}"), Some(p.cpu()), move |ctx| {
                ctx.sleep(SimDuration::from_nanos(1_069 * f as u64));
                let mut s =
                    SessionSender::new(&p, ctx, NodeId(dst as u32), Discriminator(700 + f as u64))
                        .expect("session sender");
                for i in 0..CRASH_MSGS {
                    s.send(ctx, &payload(f, i));
                    ctx.sleep(flow_gap(f));
                }
                s.close(ctx)
            }),
        );
    }

    // Detection watchers: one per affected flow, polling the sender's
    // provider for the first heartbeat-watchdog timeout, in 20 us polls
    // from the kill instant.
    let mut watch = Vec::with_capacity(AFFECTED_FLOWS);
    for f in 0..AFFECTED_FLOWS {
        let (src, _) = flow_pair(f);
        let p = cluster.provider(src);
        let sim = cluster.sim().clone();
        watch.push(
            sim.spawn(format!("crash-watch-f{f}"), Some(p.cpu()), move |ctx| {
                ctx.sleep(crash_at().saturating_duration_since(ctx.now()));
                let deadline = crash_at() + SimDuration::from_millis(8);
                loop {
                    if p.stats().heartbeat_timeouts > 0 {
                        return Some(ctx.now());
                    }
                    if ctx.now() >= deadline {
                        return None;
                    }
                    ctx.sleep(SimDuration::from_micros(20));
                }
            }),
        );
    }

    rig.run();

    let tx_stats: Vec<SessionStats> = tx.into_iter().map(|h| h.expect_result()).collect();
    let mut flows = Vec::with_capacity(CRASH_FLOWS);
    for (f, h) in rx.into_iter().enumerate() {
        let (got, stall, post_crash, last, rxs) = h.expect_result();
        let (src, dst) = flow_pair(f);
        let affected = f < AFFECTED_FLOWS;
        let label = format!("f{f:02} {src}->{dst}{}", if affected { "*" } else { "" });
        // The session-conservation oracle: exactly once, in order, bytes
        // checked — across the crash for affected flows, trivially for
        // bystanders.
        assert_eq!(got.len() as u64, CRASH_MSGS, "{label}: delivery count");
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(*msg, payload(f, i as u64), "{label}: in-order at {i}");
        }
        let txs = tx_stats[f];
        assert_eq!(txs.sent, CRASH_MSGS, "{label}: sent");
        assert_eq!(
            txs.acked, CRASH_MSGS,
            "{label}: every journal entry retired"
        );
        assert_eq!(rxs.delivered, CRASH_MSGS, "{label}: delivered");
        assert_eq!(rxs.out_of_order, 0, "{label}: replay must stay in order");
        if affected {
            assert!(
                txs.reconnects >= 1,
                "{label}: the kill must force a reconnect: {txs:?}"
            );
            assert!(txs.replays >= 1, "{label}: journal must replay: {txs:?}");
        } else {
            assert_eq!(
                txs.reconnects, 0,
                "{label}: a bystander session must sail through: {txs:?}"
            );
            assert_eq!(rxs.dups_dropped, 0, "{label}: bystander saw a replay");
        }
        flows.push(CrashFlow {
            label,
            affected,
            delivered: got.len() as u64,
            post_crash,
            stall,
            last_rx: last,
            tx: txs,
            rx: rxs,
        });
    }

    let detection: Vec<SimTime> = watch
        .into_iter()
        .enumerate()
        .map(|(f, h)| {
            h.expect_result()
                .unwrap_or_else(|| panic!("f{f:02}: watchdog never detected the dead peer"))
        })
        .collect();
    let bound = hb().timeout + hb().interval + SimDuration::from_micros(40);
    for (f, &t) in detection.iter().enumerate() {
        assert!(
            t.duration_since(crash_at()) <= bound,
            "f{f:02}: detection at {t:?} exceeds the watchdog bound"
        );
    }

    let vstats = cluster.provider(VICTIM).stats();
    assert_eq!(
        vstats.node_crashes, 1,
        "exactly one crash wipe at the victim"
    );
    let victim_dropped = cluster.san().node_fault_dropped()[VICTIM];
    assert!(
        victim_dropped > 0,
        "the window must drain frames at the victim"
    );
    let sessions_recovered = flows.iter().filter(|fl| fl.tx.reconnects > 0).count() as u64;
    assert_eq!(
        sessions_recovered, AFFECTED_FLOWS as u64,
        "every victim-terminating session must recover"
    );
    // Session recovery is the one health figure `Rig::run`'s roll-up
    // cannot see (it already counted the crash wipe): it is session-layer
    // knowledge.
    crate::runner::ledger(|h| h.sessions_recovered += sessions_recovered);

    CrashOutcome {
        flows,
        detection,
        san: cluster.san().stats(),
        victim_dropped,
        node_crashes: vstats.node_crashes,
        sessions_recovered,
    }
}

/// The node-kill tables: per-flow session telemetry and the crash
/// timeline / recovery summary.
pub fn node_kill_tables() -> (Table, Table) {
    let o = node_kill(CRASH_SEED, 1);

    let mut flows = Table::new(
        format!(
            "X-CRASH: {CRASH_FLOWS} session flows through a node kill \
             (node {VICTIM} down {}-{} us, heartbeat {}/{} us)",
            crash_at().as_micros_f64(),
            (crash_at() + crash_duration()).as_micros_f64(),
            hb().interval.as_micros_f64(),
            hb().timeout.as_micros_f64()
        ),
        vec![
            "msgs".to_string(),
            "post-crash msgs".to_string(),
            "stall (us)".to_string(),
            "last rx (us)".to_string(),
            "replays".to_string(),
            "reconnects".to_string(),
            "dups dropped".to_string(),
            "connect attempts".to_string(),
        ],
    );
    for fl in &o.flows {
        flows.push(
            fl.label.clone(),
            vec![
                fl.delivered as f64,
                fl.post_crash as f64,
                fl.stall.as_micros_f64(),
                fl.last_rx.as_micros_f64(),
                fl.tx.replays as f64,
                fl.tx.reconnects as f64,
                fl.rx.dups_dropped as f64,
                fl.tx.connect_attempts as f64,
            ],
        );
    }

    let mut summary = Table::new(
        "X-CRASH: crash timeline, watchdog detection & session recovery",
        vec!["value".to_string()],
    );
    summary.push("crash at (us)", vec![crash_at().as_micros_f64()]);
    summary.push(
        "reboot at (us)",
        vec![(crash_at() + crash_duration()).as_micros_f64()],
    );
    for (f, t) in o.detection.iter().enumerate() {
        summary.push(
            format!("f{f:02} peer-down detected (us)"),
            vec![t.as_micros_f64()],
        );
    }
    summary.push("node crashes", vec![o.node_crashes as f64]);
    summary.push("sessions recovered", vec![o.sessions_recovered as f64]);
    summary.push(
        "reconnect storm (connect attempts)",
        vec![
            o.flows.iter().map(|f| f.tx.connect_attempts).sum::<u64>() as f64 - CRASH_FLOWS as f64,
        ],
    );
    summary.push(
        "journal replays",
        vec![o.flows.iter().map(|f| f.tx.replays).sum::<u64>() as f64],
    );
    summary.push(
        "dup deliveries dropped",
        vec![o.flows.iter().map(|f| f.rx.dups_dropped).sum::<u64>() as f64],
    );
    summary.push(
        "frames fault-dropped",
        vec![o.san.frames_fault_dropped as f64],
    );
    summary.push("  of which at the victim", vec![o.victim_dropped as f64]);
    (flows, summary)
}

// ---------------------------------------------------------------------
// Randomized recovery probe (tests/session_recovery.rs)
// ---------------------------------------------------------------------

/// The small tree the randomized probe runs over: 8 hosts, 2 edges, 1
/// spine — trunks and two edges to cross, cheap enough for a property
/// sweep.
fn probe_tree() -> Topology {
    let trunk = LinkParams {
        bandwidth_bps: 440_000_000,
        propagation: SimDuration::from_nanos(600),
        frame_overhead_bytes: 8,
        mtu: 64 * 1024,
    };
    Topology::fat_tree(2, 4, 1, trunk, PortLimits::default())
}

/// Run one seed-derived randomized crash/loss plan through a session
/// flow on the probe tree and return a deterministic digest of
/// everything observable: session counters both sides, fabric counters,
/// and the per-node fault-drop split. The plan (victim side, node_down
/// vs nic_reset, window edges, optional degrade-loss window, optional
/// second kill) is content-keyed by `seed` alone. Panics if delivery is
/// not exactly-once in-order.
pub fn recovery_probe(seed: u64) -> String {
    let mut rng = SimRng::derive(seed, "x-crash-probe");
    let msgs = 12 + rng.below(13);
    let gap = SimDuration::from_micros(25 + rng.below(36));
    let src = rng.below(4) as usize;
    let dst = 4 + rng.below(4) as usize;
    let victim = if rng.chance(0.5) { dst } else { src };
    let at = SimTime::ZERO + SimDuration::from_micros(2_300 + rng.below(900));
    let dur = SimDuration::from_micros(250 + rng.below(500));
    let mut plan = if rng.chance(0.5) {
        FaultPlan::new().node_down(NodeId(victim as u32), at, dur)
    } else {
        FaultPlan::new().nic_reset(NodeId(victim as u32), at, dur)
    };
    if rng.chance(0.4) {
        // Lossy survivor link on top of the crash: retransmission and
        // session replay have to compose.
        let other = if victim == dst { src } else { dst };
        plan = plan.degrade(
            NodeId(other as u32),
            at,
            dur + SimDuration::from_micros(400),
            SimDuration::from_micros(2),
            0.15,
        );
    }
    if rng.chance(0.3) {
        let at2 = at + dur + SimDuration::from_micros(400 + rng.below(600));
        plan = plan.node_down(
            NodeId(victim as u32),
            at2,
            SimDuration::from_micros(200 + rng.below(300)),
        );
    }

    let rig = Rig::new_with_profile(
        probe_tree(),
        crash_profile(),
        seed,
        format!("crash-probe-{seed:x}"),
    );
    let cluster = &rig.cluster;
    cluster.san().install_faults(&plan);

    let rh = {
        let p = cluster.provider(dst);
        let sim = cluster.sim().clone();
        sim.spawn("probe-rx", Some(p.cpu()), move |ctx| {
            let mut r =
                SessionReceiver::new(&p, ctx, Discriminator(900)).expect("session receiver");
            let mut got = Vec::new();
            while let Some(msg) = r.recv(ctx) {
                got.push(msg);
            }
            (got, r.close(ctx))
        })
    };
    let sh = {
        let p = cluster.provider(src);
        let sim = cluster.sim().clone();
        sim.spawn("probe-tx", Some(p.cpu()), move |ctx| {
            let mut s = SessionSender::new(&p, ctx, NodeId(dst as u32), Discriminator(900))
                .expect("session sender");
            for i in 0..msgs {
                s.send(ctx, &payload(99, i));
                ctx.sleep(gap);
            }
            s.close(ctx)
        })
    };
    rig.run();

    let (got, rxs) = rh.expect_result();
    let txs = sh.expect_result();
    assert_eq!(got.len() as u64, msgs, "probe seed {seed}: delivery count");
    for (i, msg) in got.iter().enumerate() {
        assert_eq!(
            *msg,
            payload(99, i as u64),
            "probe seed {seed}: order at {i}"
        );
    }
    assert_eq!(txs.acked, msgs, "probe seed {seed}: journal retired");
    assert_eq!(rxs.out_of_order, 0, "probe seed {seed}: in-order");

    let san = cluster.san().stats();
    let per_node: Vec<String> = cluster
        .san()
        .node_fault_dropped()
        .iter()
        .map(u64::to_string)
        .collect();
    let vstats = cluster.provider(victim).stats();
    format!(
        "seed={seed:x} msgs={msgs} tx[epochs={} attempts={} replays={} acked={}] \
         rx[delivered={} dups={} discarded={} acks={} stale={}] \
         victim[crashes={} resets={}] \
         san[sent={} delivered={} dropped={} faulted={} fault_dropped={} port_dropped={}] \
         per_node=[{}]",
        txs.epochs,
        txs.connect_attempts,
        txs.replays,
        txs.acked,
        rxs.delivered,
        rxs.dups_dropped,
        rxs.discarded_in_recovery,
        rxs.acks_sent,
        rxs.stale_requests_dropped,
        vstats.node_crashes,
        vstats.nic_resets,
        san.frames_sent,
        san.frames_delivered,
        san.frames_dropped,
        san.frames_faulted,
        san.frames_fault_dropped,
        san.frames_port_dropped,
        per_node.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_pairs_are_distinct_and_victim_scoped() {
        let mut nodes = Vec::new();
        for f in 0..CRASH_FLOWS {
            let (src, dst) = flow_pair(f);
            assert_ne!(src, dst);
            assert_ne!(src, VICTIM, "flow {f}: no sender on the victim");
            if f < AFFECTED_FLOWS {
                assert_eq!(dst, VICTIM, "flow {f} must terminate on the victim");
            } else {
                assert_ne!(dst, VICTIM, "flow {f} is a bystander");
                nodes.push(dst);
            }
            nodes.push(src);
        }
        let mut dedup = nodes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            nodes.len(),
            "no non-victim node plays two roles"
        );
    }

    #[test]
    fn node_kill_recovers_every_session() {
        let o = node_kill(CRASH_SEED, 1);
        assert_eq!(o.node_crashes, 1);
        assert_eq!(o.sessions_recovered, AFFECTED_FLOWS as u64);
        // Affected flows pay a crash-window-sized goodput dip; bystanders
        // never stall beyond their pacing.
        for fl in &o.flows {
            if fl.affected {
                assert!(
                    fl.stall >= crash_duration(),
                    "{}: dip must span the window: {:?}",
                    fl.label,
                    fl.stall
                );
                assert!(fl.post_crash > 0, "{}: must recover goodput", fl.label);
            } else {
                assert!(
                    fl.stall < SimDuration::from_micros(500),
                    "{}: bystander stalled: {:?}",
                    fl.label,
                    fl.stall
                );
            }
        }
    }
}
