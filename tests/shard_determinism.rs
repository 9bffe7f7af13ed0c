//! Workspace-level determinism proofs for the sharded engine.
//!
//! Three angles on the same invariant — splitting the event queue across
//! conservatively synchronized shards must be *unobservable* in virtual
//! time:
//!
//! 1. The X-SHARD artifact (full VIA stack over a sharded cluster) is
//!    byte-identical at `VIBE_SHARDS` = 1, 2, 4 — the property CI's
//!    golden matrix pins.
//! 2. The merged scheduler/pool ledgers of a sharded run are
//!    conservation-exact against a serial run of the same workload: every
//!    event fires, cancels, or reaps on exactly one shard.
//! 3. A randomized property sweep: random link latencies, switch delays,
//!    loss rates, node counts, traffic patterns and fault plans — the
//!    per-node delivery timelines and fabric counters match the serial
//!    engine at every shard count, with zero causality violations.

use std::sync::{Arc, Mutex};

use vibe_suite::fabric::{FaultPlan, NetParams, NodeId, San};
use vibe_suite::simkit::{EventClass, ShardedSim, Sim, SimDuration, SimRng, SimTime};
use vibe_suite::vibe::suite::find;

/// One delivery as observed by a node: (virtual ns, source, payload bytes).
type NodeLog = Arc<Mutex<Vec<(u64, u32, u32)>>>;

/// Attach a per-node delivery log to every node of the SAN.
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

#[test]
fn x_shard_artifact_is_byte_identical_across_shard_counts() {
    // The golden invariant end to end: the registry experiment renders the
    // same JSON bytes no matter how many engine shards run it. This is the
    // only test in this binary that touches VIBE_SHARDS.
    let e = find("X-SHARD").expect("X-SHARD registered");
    std::env::set_var("VIBE_SHARDS", "1");
    let baseline = e.run_json();
    for shards in ["2", "4"] {
        std::env::set_var("VIBE_SHARDS", shards);
        let got = e.run_json();
        assert_eq!(
            got, baseline,
            "X-SHARD artifact bytes diverged at VIBE_SHARDS={shards}"
        );
    }
    std::env::remove_var("VIBE_SHARDS");
}

#[test]
fn sharded_ledger_merge_is_conservation_exact() {
    // Satellite invariant: merged per-shard SchedStats/PoolStats are plain
    // sums, so a sharded run's ledger must equal the serial ledger of the
    // same (fault-free) workload — not approximately, exactly. Shard-local
    // arena shape (freelist reuse vs. growth) is the one legitimately
    // shard-dependent corner, so those fields are only compared in
    // conserved combination.
    let params = NetParams::clan();
    let nodes = 6u32;

    let sim = Sim::new();
    let san = San::new(sim.clone(), params, nodes as usize, 17);
    let logs = attach_logs(&san, nodes);
    for src in 0..nodes {
        schedule_traffic(&san, &sim, src, nodes, 12);
    }
    let serial = sim.run_to_completion();
    let serial_logs = drain(logs);
    assert!(serial.sched.fired > 0);

    for shards in [2usize, 3, 4] {
        let eng = ShardedSim::new(shards, params.min_cross_latency());
        let san = San::new_sharded(&eng, params, nodes as usize, 17);
        let logs = attach_logs(&san, nodes);
        for src in 0..nodes {
            schedule_traffic(&san, eng.sim_for_node(src), src, nodes, 12);
        }
        let rep = eng.run_to_completion();
        assert_eq!(rep.causality_violations, 0, "shards={shards}");
        assert_eq!(
            drain(logs),
            serial_logs,
            "deliveries diverged, shards={shards}"
        );

        // Event conservation: every event fired on exactly one shard.
        assert_eq!(rep.events, serial.events, "shards={shards}");
        assert_eq!(rep.sched.fired, serial.sched.fired, "shards={shards}");
        assert_eq!(
            rep.sched.cancelled, serial.sched.cancelled,
            "shards={shards}"
        );
        assert_eq!(
            rep.sched.dead_popped, serial.sched.dead_popped,
            "shards={shards}"
        );
        for (class, tally) in rep.sched.classes() {
            assert_eq!(
                tally,
                serial.sched.class(class),
                "class {class:?} tally diverged, shards={shards}"
            );
        }
        // Storage conservation: each action is stored once, in the same
        // size class as serially (cross-shard sends build the action on
        // the sending side).
        assert_eq!(rep.sched.pool.inline_small, serial.sched.pool.inline_small);
        assert_eq!(rep.sched.pool.inline_large, serial.sched.pool.inline_large);
        assert_eq!(rep.sched.pool.boxed, serial.sched.pool.boxed);
        assert_eq!(rep.sched.pool.wakes, serial.sched.pool.wakes);
        // Slot requests are conserved in total; the reuse/growth split is
        // per-arena and legitimately shard-dependent.
        assert_eq!(
            rep.sched.pool.slot_reused + rep.sched.pool.slot_grown,
            serial.sched.pool.slot_reused + serial.sched.pool.slot_grown,
            "shards={shards}"
        );
        // Per-shard event counts must sum to the merged total.
        let per_shard_events: u64 = rep.per_shard.iter().map(|s| s.events).sum();
        assert_eq!(per_shard_events, rep.events, "shards={shards}");
        // Cross-shard channel conservation: every message sent is received.
        let sent: u64 = rep.per_shard.iter().map(|s| s.sent).sum();
        let received: u64 = rep.per_shard.iter().map(|s| s.received).sum();
        assert_eq!(sent, received, "channel leak at shards={shards}");
    }
}

#[test]
fn random_fabrics_match_serial_at_every_shard_count() {
    // Property sweep: random single-switch fabrics (latencies, loss,
    // store-and-forward vs. cut-through, node count), random traffic and a
    // randomized fault plan. For every sampled world, a sharded run must
    // reproduce the serial per-node delivery timelines and counters
    // exactly, and no shard may observe an arrival below its granted
    // horizon (causality_violations == 0).
    for case in 0..8u64 {
        let mut rng = SimRng::derive(0xD15C, &format!("shard-prop-{case}"));
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
        let nodes = 3 + rng.below(6) as u32; // 3..=8
        let msgs = 8 + rng.below(10); // 8..=17 per node
        let plan = if rng.chance(0.6) {
            FaultPlan::randomized(
                &mut rng,
                SimTime::ZERO + SimDuration::from_micros(2),
                SimDuration::from_micros(200),
                nodes,
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
                San::new(sim, params, nodes as usize, case)
            } else {
                let e = ShardedSim::new(shards, params.min_cross_latency());
                sims = (0..nodes).map(|n| e.sim_for_node(n).clone()).collect();
                let san = San::new_sharded(&e, params, nodes as usize, case);
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
            (drain(logs), san.stats(), violations)
        };

        let (serial_logs, serial_stats, _) = run(1);
        let total: usize = serial_logs.iter().map(|l| l.len()).sum();
        assert!(total > 0, "case {case}: nothing delivered");
        for shards in [2usize, 4] {
            let (logs, stats, violations) = run(shards);
            assert_eq!(violations, 0, "case {case} shards={shards}");
            assert_eq!(
                logs, serial_logs,
                "case {case}: per-node timeline diverged at shards={shards}"
            );
            assert_eq!(
                stats, serial_stats,
                "case {case}: SAN counters diverged at shards={shards}"
            );
        }
    }
}
