//! Isolated layer probes: timed loops over one layer's public API each,
//! ported from the print-only `sim_perf` criterion groups so their numbers
//! land in the per-layer metrics instead of a terminal.
//!
//! A probe runs fixed-size batches until its time budget is spent (at
//! least three) and reports the median batch, per operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric::{FaultPlan, NetParams, NodeId, PortLimits, San};
use simkit::{EventClass, Sim, SimDuration, SimTime, WaitMode};
use via::Profile;
use vibe::harness::{DtConfig, Pair};

use crate::bench_util::{median, set_allowed_cpus, CpuSet};

/// Wall budget of one probe at full scale, seconds.
pub const PROBE_BUDGET_S: f64 = 0.2;

/// Median ns per operation over auto-scaled batches. `batch` performs
/// `ops` operations and returns the wall of its timed part (set-up it
/// does before starting its clock is excluded).
fn ns_per_op(budget_s: f64, ops: u64, mut batch: impl FnMut() -> Duration) -> f64 {
    batch(); // warm caches, allocator and thread-stack pool
    let mut samples = Vec::new();
    let mut spent = 0.0;
    while samples.len() < 3 || spent < budget_s {
        let d = batch().as_secs_f64();
        spent += d;
        samples.push(d * 1e9 / ops as f64);
    }
    median(&samples)
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed()
}

// --- simkit.engine ----------------------------------------------------

fn engine_dispatch_ns(budget: f64) -> f64 {
    const N: u64 = 10_000;
    ns_per_op(budget, N, || {
        timed(|| {
            let sim = Sim::new();
            let count = Arc::new(AtomicU64::new(0));
            for i in 0..N {
                let count = Arc::clone(&count);
                sim.call_in(SimDuration::from_nanos(i % 977), move |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
            let report = sim.run();
            assert_eq!(count.load(Ordering::Relaxed), N);
            report.events
        })
    })
}

fn engine_timer_cancel_ns(budget: f64) -> f64 {
    // Retransmit-style churn: arm, cancel, re-arm; the run loop then reaps
    // the dead heap entries.
    const N: u64 = 10_000;
    ns_per_op(budget, N, || {
        timed(|| {
            let sim = Sim::new();
            for i in 0..N {
                let h = sim.timer_in(
                    EventClass::Retransmit,
                    SimDuration::from_nanos(1 + i % 977),
                    |_| {},
                );
                assert!(h.cancel());
            }
            let report = sim.run();
            assert_eq!(report.cancelled(), N);
            report.events
        })
    })
}

// --- simkit.process ---------------------------------------------------

fn process_handoff_ns(budget: f64) -> f64 {
    const N: u64 = 1_000;
    ns_per_op(budget, N, || {
        timed(|| {
            let sim = Sim::new();
            sim.spawn("p", None, |ctx| {
                for _ in 0..N {
                    ctx.sleep(SimDuration::from_nanos(50));
                }
            });
            sim.run_to_completion().events
        })
    })
}

fn process_spawn_ns(budget: f64) -> f64 {
    // Spawn, first wake, return, join — per trivial process. 250 threads
    // alive at once, the scale of a 64-node topology workload.
    const N: u64 = 250;
    ns_per_op(budget, N, || {
        timed(|| {
            let sim = Sim::new();
            let handles: Vec<_> = (0..N).map(|i| sim.spawn("t", None, move |_| i)).collect();
            sim.run_to_completion();
            handles.iter().map(|h| h.expect_result()).sum::<u64>()
        })
    })
}

// --- simkit.shard -----------------------------------------------------

/// Wall of one 8-node ring at 1 and 2 engine shards. The only probe that
/// needs more than one CPU: affinity is widened to `wide` for its duration
/// and narrowed again afterwards.
fn shard_ring_wall_s(budget: f64, wide: Option<&(CpuSet, usize)>) -> (f64, f64) {
    use vibe::shard_bench::{ring, RING_NODES};
    const MSGS: u64 = 24;
    const SIZE: u64 = 1024;
    if let Some((all, _)) = wide {
        set_allowed_cpus(all);
    }
    let one = |shards: usize| {
        ns_per_op(budget, 1, || {
            timed(|| {
                ring(Profile::clan(), RING_NODES, MSGS, SIZE, 3, shards)
                    .per_node
                    .len()
            })
        }) * 1e-9
    };
    let walls = (one(1), one(2));
    if let Some((_, cpu)) = wide {
        set_allowed_cpus(&CpuSet::single(*cpu));
    }
    walls
}

// --- fabric -----------------------------------------------------------

fn fabric_frames_ns(budget: f64, build: impl Fn(&Sim) -> San, dst: u32) -> f64 {
    const N: u64 = 1_000;
    ns_per_op(budget, N, || {
        let sim = Sim::new();
        let san = build(&sim);
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        san.attach(
            NodeId(dst),
            Arc::new(move |_, _| {
                c2.fetch_add(1, Ordering::Relaxed);
            }),
        );
        timed(|| {
            for _ in 0..N {
                san.send(NodeId(0), NodeId(dst), 1024, Box::new(()));
            }
            sim.run();
            assert_eq!(count.load(Ordering::Relaxed), N);
        })
    })
}

fn star(sim: &Sim) -> San {
    San::new(sim.clone(), NetParams::myrinet(), 2, 1)
}

// --- vnic -------------------------------------------------------------

fn vnic_pci_reserve_ns(budget: f64) -> f64 {
    const N: u64 = 100_000;
    let sim = Sim::new();
    let pci = vnic::PciBus::new(sim, vnic::PciParams::pci_33_32());
    ns_per_op(budget, N, || {
        timed(|| {
            let mut last = SimTime::ZERO;
            for _ in 0..N {
                last = pci.reserve(std::hint::black_box(64));
            }
            last
        })
    })
}

fn vnic_xlate_ns(budget: f64, miss: bool) -> f64 {
    const N: u64 = 100_000;
    let sim = Sim::new();
    let pci = vnic::PciBus::new(sim, vnic::PciParams::pci_33_32());
    let mut engine = vnic::XlateEngine::new(vnic::XlateConfig::bvia());
    let entries = vnic::XlateConfig::bvia().nic_cache_entries as u64;
    let mut next = 0u64;
    ns_per_op(budget, N, || {
        // Hits cycle inside the cache; misses walk fresh pages forever.
        let first = if miss { next } else { 0 };
        next += N;
        let pages = (0..N).map(move |i| if miss { first + i } else { i % (entries / 2) });
        timed(|| engine.nic_translate(pages, &pci))
    })
}

fn vnic_ring_push_pop_ns(budget: f64) -> f64 {
    const N: u64 = 100_000;
    let mut ring = vnic::DescRing::<u64>::new(64);
    ns_per_op(budget, N, || {
        timed(|| {
            let mut sum = 0u64;
            for i in 0..N {
                ring.try_push(std::hint::black_box(i))
                    .expect("ring has room");
                sum += ring.pop_front().expect("just pushed");
            }
            sum
        })
    })
}

fn vnic_intr_deliver_ns(budget: f64) -> f64 {
    // `deliver` charges the handler and schedules the wake. One process
    // delivers N interrupts against a single wait token: the first wake
    // resumes it, the rest are stale and ignored, so the timed loop holds
    // `deliver` alone and no hand-off.
    const N: u64 = 10_000;
    ns_per_op(budget, N, || {
        let sim = Sim::new();
        let cpu = sim.add_cpu("host");
        let intr = vnic::InterruptController::new(
            cpu,
            SimDuration::from_micros(10),
            SimDuration::from_micros(2),
        );
        let h = sim.spawn("blocked", Some(cpu), move |ctx| {
            let token = ctx.prepare_wait();
            let d = timed(|| {
                for _ in 0..N {
                    intr.deliver(ctx.sim(), token);
                }
            });
            ctx.wait(token);
            d
        });
        sim.run_to_completion();
        h.expect_result()
    })
}

// --- mpl / dsm --------------------------------------------------------

fn mpl_layer_msg_ns(budget: f64) -> f64 {
    const ITERS: u32 = 50;
    ns_per_op(budget, 2 * ITERS as u64, || {
        timed(|| {
            vibe::mpl_bench::layer_latency(Profile::clan(), mpl::MplConfig::default(), 256, ITERS)
        })
    })
}

fn dsm_page_pingpong_ns(budget: f64) -> f64 {
    const ROUNDS: u64 = 20;
    ns_per_op(budget, 2 * ROUNDS, || {
        timed(|| vibe::dsm_bench::page_pingpong_us(Profile::clan(), ROUNDS, 1))
    })
}

// --- trace ------------------------------------------------------------

fn trace_record_ns(budget: f64) -> f64 {
    const N: u64 = 50_000;
    let tracer = trace::Tracer::new(trace::TraceConfig::default());
    ns_per_op(budget, N, || {
        tracer.clear();
        timed(|| {
            for i in 0..N {
                tracer.record(
                    SimTime::from_nanos(i),
                    trace::TracePoint::Interrupt,
                    0,
                    None,
                    i,
                );
            }
        })
    })
}

/// One cLAN ping-pong of `iters` round trips; `iters == 0` is set-up alone
/// (`Pair::new`, VI creation, connect, teardown).
fn clan_pingpong(iters: u32, traced: bool) -> Duration {
    use via::{Descriptor, MemAttributes};
    let cfg = DtConfig {
        iters,
        warmup: 0,
        ..DtConfig::base(Profile::clan(), 4)
    };
    timed(|| {
        let pair = Pair::new(&cfg);
        if traced {
            pair.enable_trace(trace::TraceConfig::default());
        }
        pair.run(
            move |ctx, ep| {
                let buf = ep.provider.malloc(64);
                let mh = ep
                    .provider
                    .register_mem(ctx, buf, 64, MemAttributes::default())
                    .unwrap();
                if iters > 0 {
                    ep.vi
                        .post_recv(ctx, Descriptor::recv().segment(buf, mh, 64))
                        .unwrap();
                }
                ep.sync(ctx);
                for i in 0..iters {
                    ep.vi.recv_wait(ctx, WaitMode::Poll);
                    if i + 1 < iters {
                        ep.vi
                            .post_recv(ctx, Descriptor::recv().segment(buf, mh, 64))
                            .unwrap();
                    }
                    ep.vi
                        .post_send(ctx, Descriptor::send().segment(buf, mh, 4))
                        .unwrap();
                    ep.vi.send_wait(ctx, WaitMode::Poll);
                }
            },
            move |ctx, ep| {
                let buf = ep.provider.malloc(64);
                let mh = ep
                    .provider
                    .register_mem(ctx, buf, 64, MemAttributes::default())
                    .unwrap();
                ep.sync(ctx);
                for _ in 0..iters {
                    ep.vi
                        .post_recv(ctx, Descriptor::recv().segment(buf, mh, 64))
                        .unwrap();
                    ep.vi
                        .post_send(ctx, Descriptor::send().segment(buf, mh, 4))
                        .unwrap();
                    ep.vi.recv_wait(ctx, WaitMode::Poll);
                    ep.vi.send_wait(ctx, WaitMode::Poll);
                }
            },
        );
    })
}

/// Tracer attached (full span capture) vs detached on the same cLAN
/// ping-pong, percent. Batches alternate so drift hits both sides alike.
fn trace_attached_overhead_pct(budget: f64) -> f64 {
    const ITERS: u32 = 100;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    clan_pingpong(ITERS, true);
    let mut spent = 0.0;
    while off.len() < 3 || spent < 2.0 * budget {
        let (a, b) = (clan_pingpong(ITERS, false), clan_pingpong(ITERS, true));
        spent += (a + b).as_secs_f64();
        off.push(a.as_secs_f64());
        on.push(b.as_secs_f64());
    }
    (median(&on) / median(&off) - 1.0) * 100.0
}

// --- all --------------------------------------------------------------

/// Run every probe; `(metric name, value)` in `spec::PER_LAYER` order.
/// `scale` divides the per-probe time budget (20 = smoke). `pinned` is the
/// original allowed set and the pinned CPU, when pinning succeeded.
pub fn run_all(scale: u32, pinned: Option<&(CpuSet, usize)>) -> Vec<(&'static str, f64)> {
    let b = PROBE_BUDGET_S / scale.max(1) as f64;
    let fat_tree = || vibe::topo_bench::fat_tree64(PortLimits::default());
    let armed = FaultPlan::new().degrade(
        NodeId(1),
        SimTime::ZERO,
        SimDuration::from_secs(3600),
        SimDuration::from_micros(1),
        0.0,
    );
    let (s1, s2) = shard_ring_wall_s(b, pinned);
    vec![
        ("simkit.engine.dispatch_ns", engine_dispatch_ns(b)),
        ("simkit.engine.timer_cancel_ns", engine_timer_cancel_ns(b)),
        ("simkit.process.handoff_ns", process_handoff_ns(b)),
        ("simkit.process.spawn_ns", process_spawn_ns(b)),
        ("simkit.shard.ring_s1_wall_s", s1),
        ("simkit.shard.ring_s2_wall_s", s2),
        ("simkit.shard.s2_over_s1", s2 / s1),
        ("fabric.san.star_frame_ns", fabric_frames_ns(b, star, 1)),
        (
            "fabric.topo.fattree_frame_ns",
            // Nodes 0 and 63 sit on different edge switches: every frame
            // crosses a spine.
            fabric_frames_ns(
                b,
                |sim| San::new_topo(sim.clone(), NetParams::clan(), fat_tree(), 1),
                63,
            ),
        ),
        (
            "fabric.fault.empty_plan_frame_ns",
            fabric_frames_ns(
                b,
                |sim| {
                    let san = star(sim);
                    san.install_faults(&FaultPlan::new());
                    san
                },
                1,
            ),
        ),
        (
            "fabric.fault.armed_frame_ns",
            fabric_frames_ns(
                b,
                |sim| {
                    let san = star(sim);
                    san.install_faults(&armed);
                    san
                },
                1,
            ),
        ),
        ("vnic.pci.reserve_ns", vnic_pci_reserve_ns(b)),
        ("vnic.xlate.translate_hit_ns", vnic_xlate_ns(b, false)),
        ("vnic.xlate.translate_miss_ns", vnic_xlate_ns(b, true)),
        ("vnic.ring.push_pop_ns", vnic_ring_push_pop_ns(b)),
        ("vnic.intr.deliver_ns", vnic_intr_deliver_ns(b)),
        ("mpl.layer_msg_ns", mpl_layer_msg_ns(b)),
        ("dsm.page_pingpong_ns", dsm_page_pingpong_ns(b)),
        ("trace.record_ns", trace_record_ns(b)),
        (
            "trace.attached_overhead_pct",
            trace_attached_overhead_pct(b),
        ),
        (
            "core.harness.pair_setup_ns",
            ns_per_op(b, 1, || clan_pingpong(0, false)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{self, Kind};

    #[test]
    fn every_probe_metric_is_emitted_and_positive() {
        let got = run_all(40, None);
        let want: Vec<_> = spec::PER_LAYER
            .iter()
            .filter(|m| m.kind == Kind::Probe)
            .map(|m| m.name)
            .collect();
        let names: Vec<_> = got.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names, want,
            "probes must cover spec::PER_LAYER's probe metrics, in order"
        );
        for (name, v) in &got {
            assert!(v.is_finite(), "{name} = {v}");
            if *name != "trace.attached_overhead_pct" {
                assert!(*v > 0.0, "{name} = {v}");
            }
        }
    }

    #[test]
    fn batches_scale_to_the_budget() {
        let mut calls = 0;
        let v = ns_per_op(0.02, 10, || {
            calls += 1;
            Duration::from_millis(5)
        });
        // One warm-up batch, then ceil(0.02 / 0.005) measured ones.
        assert_eq!(calls, 1 + 4);
        assert!((v - 5e5).abs() < 1.0, "{v}");
    }
}
