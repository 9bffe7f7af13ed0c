//! Workspace-level determinism proofs for multi-switch topologies.
//!
//! The sharded engine's contract — splitting the event queue across
//! conservatively synchronized shards is *unobservable* in virtual time —
//! must survive the topology layer: buffered switch ports, store-and-forward
//! serialization, ECMP route selection, backpressure pauses and honest port
//! drops all have to land on identical virtual timestamps no matter how the
//! switches are spread over shards. This binary sweeps randomized worlds
//! (topology shape x loss x fault plans) and demands byte-exact agreement
//! between the serial engine and every shard count, with zero causality
//! violations.

use std::sync::{Arc, Mutex};

use vibe_suite::fabric::{FaultPlan, LinkParams, NetParams, NodeId, PortLimits, San, Topology};
use vibe_suite::simkit::{EventClass, ShardedSim, Sim, SimDuration, SimRng, SimTime};

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

/// Schedule `msgs` staggered sends from `src` to rotating destinations.
fn schedule_traffic(san: &San, sim: &Sim, src: u32, nodes: u32, msgs: u64) {
    for k in 0..msgs {
        let dst = NodeId((src + 1 + (k as u32 % (nodes - 1))) % nodes);
        let s = NodeId(src);
        let san2 = san.clone();
        let at = SimDuration::from_nanos(977 * (k + 1) + src as u64 * 211);
        let bytes = 200 + 97 * (k as u32 % 11);
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

/// A randomly parameterized multi-switch shape. Trunks are deliberately
/// faster than host links sometimes and slower other times, so the
/// shard lookahead (min trunk traversal) exercises both regimes.
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
    match rng.below(3) {
        0 => Topology::dumbbell(4 + rng.below(8) as usize, trunk, limits),
        1 => Topology::fat_tree(
            2 + rng.below(3) as usize,
            2 + rng.below(3) as usize,
            1 + rng.below(3) as usize,
            trunk,
            limits,
        ),
        _ => Topology::star(3 + rng.below(8) as usize),
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
fn random_topologies_match_serial_at_every_shard_count() {
    // Property sweep: random multi-switch worlds — dumbbell / fat-tree /
    // star shapes with random trunk speeds and port limits, random
    // loss, and randomized fault plans. For every sampled world the
    // sharded engine must reproduce the serial per-node delivery
    // timelines, SAN counters and per-port switch counters exactly, with
    // zero causality violations at every shard count.
    for case in 0..10u64 {
        let mut rng = SimRng::derive(0x70B0, &format!("topo-prop-{case}"));
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
        let nodes = topo.nodes() as u32;
        let msgs = 8 + rng.below(10); // 8..=17 per node
                                      // `randomized_topo` draws switch/trunk kills (with deterministic
                                      // reroute) on multi-switch shapes, plain node windows on the star.
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

        let run = |shards: usize| {
            let (sims, eng);
            let san = if shards == 1 {
                let sim = Sim::new();
                sims = vec![sim.clone()];
                eng = None;
                San::new_topo(sim, params, topo.clone(), case)
            } else {
                let e =
                    ShardedSim::new_with_map(topo.shard_map(shards), topo.shard_lookahead(&params));
                sims = (0..nodes).map(|n| e.sim_for_node(n).clone()).collect();
                let san = San::new_sharded_topo(&e, params, topo.clone(), case);
                eng = Some(e);
                san
            };
            let logs = attach_logs(&san, nodes);
            san.install_faults(&plan);
            for src in 0..nodes {
                let sim = if shards == 1 {
                    &sims[0]
                } else {
                    &sims[src as usize]
                };
                schedule_traffic(&san, sim, src, nodes, msgs);
            }
            let violations = match eng {
                Some(e) => e.run_to_completion().causality_violations,
                None => {
                    sims[0].run_to_completion();
                    0
                }
            };
            (
                drain(logs),
                san.stats(),
                port_tuples(&san),
                violations,
                san.audit(),
            )
        };

        let (serial_logs, serial_stats, serial_ports, _, audit) = run(1);
        let total: usize = serial_logs.iter().map(|l| l.len()).sum();
        assert!(
            total > 0,
            "case {case} ({}): nothing delivered",
            topo.name()
        );
        // The fabric's conservation laws hold serially before we even
        // compare: every injected frame is delivered or attributed to
        // exactly one sink.
        assert!(audit.is_empty(), "case {case} ({}): {audit:?}", topo.name());
        // Odd counts matter: they reshuffle which switches share a shard,
        // which is exactly what once reordered same-instant port events.
        for shards in [2usize, 3, 4, 5] {
            let (logs, stats, ports, violations, _) = run(shards);
            assert_eq!(
                violations,
                0,
                "case {case} ({}) shards={shards}",
                topo.name()
            );
            assert_eq!(
                logs,
                serial_logs,
                "case {case} ({}): per-node timeline diverged at shards={shards}",
                topo.name()
            );
            assert_eq!(
                stats,
                serial_stats,
                "case {case} ({}): SAN counters diverged at shards={shards}",
                topo.name()
            );
            assert_eq!(
                ports,
                serial_ports,
                "case {case} ({}): per-port counters diverged at shards={shards}",
                topo.name()
            );
        }
    }
}

#[test]
fn per_link_pair_lookahead_never_undershoots_trunk_traversal() {
    // The conservative contract behind `Topology::shard_lookahead`: the
    // granted horizon must be at most the cheapest cross-shard hop. Every
    // trunk traversal costs switch latency + serialization + propagation,
    // and serialization is positive for any nonempty frame, so the
    // lookahead (switch latency + minimum trunk propagation) is a strict
    // lower bound on every cross-shard arrival. Sample random topologies
    // and check the bound against every trunk the shape actually has.
    for case in 0..24u64 {
        let mut rng = SimRng::derive(0x70B1, &format!("topo-look-{case}"));
        let mut params = NetParams::clan();
        params.switch.latency = SimDuration::from_nanos(150 + rng.below(2_500));
        let topo = random_topology(&mut rng);
        // (A star has no trunks: its lookahead is the injection's floor,
        // and the trunk loop below has nothing to visit.)
        let look = topo.shard_lookahead(&params);
        assert!(look > SimDuration::ZERO, "case {case}");
        for sw in 0..topo.switches() as u32 {
            for port in topo.ports(sw) {
                let Some(trunk) = port.trunk else { continue };
                let floor = params.switch.latency + trunk.propagation;
                assert!(
                    look <= floor,
                    "case {case} ({}): lookahead {look:?} exceeds trunk floor {floor:?}",
                    topo.name()
                );
            }
        }
    }
}
