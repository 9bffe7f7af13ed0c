//! Bounded switch ports decide by content, not by event order.
//!
//! Same-instant events run in the order they were scheduled, and a port
//! that admitted, paused or dropped frames in that order would make the
//! outcome a function of which upstream event happened to be scheduled
//! first. `San::resolve` instead stages every arrival and slot free and
//! applies them one tick later in a canonical content order
//! (`arrival_order`). This binary builds randomized bounded-port worlds
//! (dumbbell and fat-tree shapes x loss x fault plans), injects every
//! node's traffic at shared instants, and runs each world twice: once
//! with the injections scheduled in forward order, once reversed. Per-node
//! delivery logs, SAN counters and per-port switch counters must agree.
//! Stars are left out: their unbounded ports admit inline, in event
//! order, by design.

use std::sync::{Arc, Mutex};

use vibe_suite::fabric::{FaultPlan, LinkParams, NetParams, NodeId, PortLimits, San, Topology};
use vibe_suite::simkit::{EventClass, Sim, SimDuration, SimRng, SimTime};

/// One delivery as observed by a node: (virtual ns, source, payload bytes).
type NodeLog = Arc<Mutex<Vec<(u64, u32, u32)>>>;

fn attach_logs(san: &San, nodes: u32) -> Vec<NodeLog> {
    (0..nodes)
        .map(|n| {
            let log: NodeLog = Arc::new(Mutex::new(Vec::new()));
            let l2 = Arc::clone(&log);
            san.attach(
                NodeId(n),
                Arc::new(move |sim: &Sim, d| {
                    l2.lock()
                        .unwrap()
                        .push((sim.now().as_nanos(), d.src.0, d.payload_bytes));
                }),
            );
            log
        })
        .collect()
}

/// Schedule `msgs` rounds of sends from every node to rotating
/// destinations. Round `k` injects at the same instant on every node, so
/// frames from different sources meet at switch ports at the same
/// instant. `reversed` schedules the same sends in the opposite order,
/// which reverses the engine's execution order within each instant.
fn schedule_traffic(san: &San, sim: &Sim, nodes: u32, msgs: u64, reversed: bool) {
    let mut sends: Vec<(u32, u64)> = (0..nodes)
        .flat_map(|src| (0..msgs).map(move |k| (src, k)))
        .collect();
    if reversed {
        sends.reverse();
    }
    for (src, k) in sends {
        let dst = NodeId((src + 1 + (k as u32 % (nodes - 1))) % nodes);
        let s = NodeId(src);
        let san2 = san.clone();
        let at = SimDuration::from_nanos(977 * (k + 1));
        let bytes = 200 + 97 * ((k as u32 + src) % 11);
        sim.call_in_as(EventClass::Fabric, at, move |_| {
            san2.send(s, dst, bytes, Box::new(()));
        });
    }
}

/// Per-node logs, each sorted by (time, src, bytes) to normalize ties.
fn drain(logs: Vec<NodeLog>) -> Vec<Vec<(u64, u32, u32)>> {
    logs.into_iter()
        .map(|l| {
            let mut v = l.lock().unwrap().clone();
            v.sort_unstable();
            v
        })
        .collect()
}

/// A randomly parameterized multi-switch shape with bounded ports. Trunks
/// are faster than host links sometimes and slower other times.
fn random_topology(rng: &mut SimRng) -> Topology {
    let trunk = LinkParams {
        bandwidth_bps: 200_000_000 + rng.below(800) * 1_000_000,
        propagation: SimDuration::from_nanos(150 + rng.below(1_500)),
        frame_overhead_bytes: 8,
        // Never narrower than any profile's access MTU (a narrower trunk
        // would strand access-MTU frames mid-path and San rejects it).
        mtu: 64 * 1024,
    };
    let limits = PortLimits {
        capacity: 2 + rng.below(8) as u32,
        pause_depth: rng.below(16) as u32,
        // Sometimes arm the pause-storm watchdog, tight enough to trip
        // under the paused backlogs the random worlds build up.
        max_pause: if rng.chance(0.3) {
            Some(SimDuration::from_micros(10 + rng.below(90)))
        } else {
            None
        },
    };
    match rng.below(2) {
        0 => Topology::dumbbell(4 + rng.below(8) as usize, trunk, limits),
        _ => Topology::fat_tree(
            2 + rng.below(3) as usize,
            2 + rng.below(3) as usize,
            1 + rng.below(3) as usize,
            trunk,
            limits,
        ),
    }
}

/// One port's counters flattened to a comparable tuple: (switch, target,
/// admitted, pauses, (drops, fault_dropped, storm_dropped), hol_blocked,
/// (storm_trips, max_pause_ns), highwater, pause_highwater).
type PortTuple = (
    u32,
    String,
    u64,
    u64,
    (u64, u64, u64),
    u64,
    (u64, u64),
    u32,
    u32,
);

/// Port counters flattened to comparable tuples (PortSnapshot itself
/// carries no PartialEq; its fields all do).
fn port_tuples(san: &San) -> Vec<PortTuple> {
    san.port_stats()
        .iter()
        .map(|p| {
            (
                p.switch,
                format!("{:?}", p.target),
                p.stats.admitted,
                p.stats.pauses,
                (p.stats.drops, p.stats.fault_dropped, p.stats.storm_dropped),
                p.stats.hol_blocked,
                (p.stats.storm_trips, p.stats.max_pause_ns),
                p.stats.highwater,
                p.stats.pause_highwater,
            )
        })
        .collect()
}

#[test]
fn bounded_port_decisions_ignore_insertion_order() {
    let mut contended = 0u64;
    for case in 0..24u64 {
        let mut rng = SimRng::derive(0x70B0, &format!("topo-order-{case}"));
        let mut params = match rng.below(3) {
            0 => NetParams::myrinet(),
            1 => NetParams::clan(),
            _ => NetParams::gigabit_ethernet(),
        };
        params.link.propagation = SimDuration::from_nanos(100 + rng.below(1_200));
        params.switch.latency = SimDuration::from_nanos(150 + rng.below(2_500));
        if rng.chance(0.5) {
            params = params.with_loss(0.02 + rng.unit() * 0.2);
        }
        let topo = random_topology(&mut rng);
        assert!(!topo.is_single_switch());
        let nodes = topo.nodes() as u32;
        let msgs = 8 + rng.below(10); // 8..=17 per node
                                      // Switch/trunk kills with deterministic reroute, and node windows.
        let plan = if rng.chance(0.6) {
            FaultPlan::randomized_topo(
                &mut rng,
                SimTime::ZERO + SimDuration::from_micros(2),
                SimDuration::from_micros(200),
                &topo,
            )
        } else {
            FaultPlan::new()
        };

        let run = |reversed: bool| {
            let sim = Sim::new();
            let san = San::new_topo(sim.clone(), params, topo.clone(), case);
            let logs = attach_logs(&san, nodes);
            san.install_faults(&plan);
            schedule_traffic(&san, &sim, nodes, msgs, reversed);
            sim.run_to_completion();
            (drain(logs), san.stats(), port_tuples(&san), san.audit())
        };

        let (logs, stats, ports, audit) = run(false);
        let total: usize = logs.iter().map(|l| l.len()).sum();
        assert!(
            total > 0,
            "case {case} ({}): nothing delivered",
            topo.name()
        );
        assert!(audit.is_empty(), "case {case} ({}): {audit:?}", topo.name());
        contended += ports.iter().map(|p| p.3 + p.4 .0).sum::<u64>();
        let (rev_logs, rev_stats, rev_ports, _) = run(true);
        assert_eq!(
            rev_logs,
            logs,
            "case {case} ({}): per-node timeline depends on insertion order",
            topo.name()
        );
        assert_eq!(
            rev_stats,
            stats,
            "case {case} ({}): SAN counters depend on insertion order",
            topo.name()
        );
        assert_eq!(
            rev_ports,
            ports,
            "case {case} ({}): per-port counters depend on insertion order",
            topo.name()
        );
    }
    // Pauses and drops happened: ports really had contended decisions to
    // make.
    assert!(contended > 0);
}
