//! Property-based tests over the core invariants:
//!
//! * any message, any segment layout, any profile → delivered bytes are
//!   exactly the sent bytes;
//! * Reliable Delivery over a lossy fabric → exactly-once, in-order
//!   delivery for arbitrary loss rates and seeds;
//! * the deterministic clock: identical runs produce identical timelines;
//! * pure-data invariants of the buffer pool.
//!
//! Cases are generated with a seeded [`SimRng`] rather than a property-test
//! framework, so the whole suite is deterministic and dependency-free: every
//! run exercises the same case set, and a failing case prints its parameters
//! so it can be pinned as an explicit regression below.

use simkit::{Sim, SimDuration, SimRng, WaitMode};
use vibe_suite::via::{
    Cluster, Descriptor, Discriminator, MemAttributes, Profile, Reliability, ViAttributes,
};

fn pick_profile(gen: &mut SimRng) -> Profile {
    match gen.below(3) {
        0 => Profile::mvia(),
        1 => Profile::bvia(),
        _ => Profile::clan(),
    }
}

/// Send one arbitrarily-shaped message and return what the receiver saw.
fn roundtrip(
    profile: Profile,
    payload: Vec<u8>,
    send_segs: usize,
    recv_segs: usize,
    seed: u64,
) -> Vec<u8> {
    let len = payload.len() as u64;
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, 2, seed);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let server = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pb.malloc(len.max(1) + 64);
            let mh = pb
                .register_mem(ctx, buf, len.max(1) + 64, MemAttributes::default())
                .unwrap();
            // Scatter the receive across recv_segs uneven segments.
            let mut d = Descriptor::recv();
            let mut off = 0u64;
            for i in 0..recv_segs {
                let remaining = len - off;
                let this = if i + 1 == recv_segs {
                    remaining
                } else {
                    (remaining / (recv_segs - i) as u64).max(1).min(remaining)
                };
                if this == 0 {
                    break;
                }
                d = d.segment(buf + off, mh, this as u32);
                off += this;
            }
            vi.post_recv(ctx, d).unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok(), "{:?}", comp.status);
            assert_eq!(comp.length, len);
            pb.mem_read(buf, len.max(1))[..len as usize].to_vec()
        })
    };
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            // Let the server post its receive first.
            ctx.sleep(SimDuration::from_micros(300));
            let buf = pa.malloc(len.max(1) + 64);
            let mh = pa
                .register_mem(ctx, buf, len.max(1) + 64, MemAttributes::default())
                .unwrap();
            pa.mem_write(buf, &payload);
            let mut d = Descriptor::send();
            let mut off = 0u64;
            for i in 0..send_segs {
                let remaining = len - off;
                let this = if i + 1 == send_segs {
                    remaining
                } else {
                    (remaining / (send_segs - i) as u64).max(1).min(remaining)
                };
                if this == 0 {
                    break;
                }
                d = d.segment(buf + off, mh, this as u32);
                off += this;
            }
            vi.post_send(ctx, d).unwrap();
            assert!(vi.send_wait(ctx, WaitMode::Poll).is_ok());
        });
    }
    sim.run_to_completion();
    server.expect_result()
}

#[test]
fn any_message_survives_any_segmentation() {
    let mut gen = SimRng::derive(11, "prop-segmentation");
    for case in 0..24 {
        let profile = pick_profile(&mut gen);
        let len = 1 + gen.below(19_999) as usize;
        let payload: Vec<u8> = (0..len).map(|_| gen.below(256) as u8).collect();
        let send_segs = 1 + gen.below(5) as usize;
        let recv_segs = 1 + gen.below(5) as usize;
        let seed = gen.next_u64();
        let got = roundtrip(profile, payload.clone(), send_segs, recv_segs, seed);
        assert_eq!(
            got, payload,
            "case {case}: len={len} send_segs={send_segs} recv_segs={recv_segs} seed={seed}"
        );
    }
}

fn reliable_case(loss: f64, seed: u64, msgs: u32, size: u64) {
    let sim = Sim::new();
    let mut profile = Profile::clan();
    profile.net = profile.net.with_loss(loss);
    // VIA's contract is exactly-once *until retry exhaustion breaks the
    // connection* (a legal outcome the engine tests cover separately).
    // Give the retransmitter enough budget that exhaustion is
    // impossible across this generator's loss range, so the property
    // can demand full delivery.
    profile.data.max_retries = 400;
    profile.data.retransmit_timeout = simkit::SimDuration::from_micros(300);
    let cluster = Cluster::new(sim.clone(), profile, 2, seed);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let attrs = ViAttributes::reliable(Reliability::ReliableDelivery);
    let server = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(size.max(1));
            let mh = pb
                .register_mem(ctx, buf, size.max(1), MemAttributes::default())
                .unwrap();
            for _ in 0..msgs {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, size as u32))
                    .unwrap();
            }
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            let mut seen = Vec::new();
            for _ in 0..msgs {
                let c = vi.recv_wait(ctx, WaitMode::Block);
                assert!(c.is_ok(), "{:?}", c.status);
                seen.push(c.immediate.unwrap());
            }
            seen
        })
    };
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let buf = pa.malloc(size.max(1));
            let mh = pa
                .register_mem(ctx, buf, size.max(1), MemAttributes::default())
                .unwrap();
            for i in 0..msgs {
                vi.post_send(
                    ctx,
                    Descriptor::send()
                        .segment(buf, mh, size as u32)
                        .immediate(i),
                )
                .unwrap();
                let c = vi.send_wait(ctx, WaitMode::Block);
                assert!(c.is_ok(), "{:?}", c.status);
            }
        });
    }
    sim.run_to_completion();
    assert_eq!(
        server.expect_result(),
        (0..msgs).collect::<Vec<_>>(),
        "case loss={loss} seed={seed} msgs={msgs} size={size}"
    );
}

#[test]
fn reliable_delivery_is_exactly_once_in_order() {
    // Pinned regression: high loss with 1-byte messages once tripped the
    // receive-side dedup (shrunk from a randomized failure).
    reliable_case(0.281_997_557_607_054_8, 9_001_254_809_112_957_138, 10, 1);
    let mut gen = SimRng::derive(12, "prop-reliable");
    for _ in 0..24 {
        let loss = gen.unit() * 0.30;
        let seed = gen.next_u64();
        let msgs = 5 + gen.below(20) as u32;
        let size = 1 + gen.below(8_999);
        reliable_case(loss, seed, msgs, size);
    }
}

#[test]
fn timelines_are_reproducible() {
    let mut gen = SimRng::derive(13, "prop-replay");
    for _ in 0..24 {
        let loss = gen.unit() * 0.2;
        let seed = gen.next_u64();
        let run = || {
            let sim = Sim::new();
            let mut profile = Profile::bvia();
            profile.net = profile.net.with_loss(loss);
            let cluster = Cluster::new(sim.clone(), profile, 2, seed);
            let (pa, pb) = (cluster.provider(0), cluster.provider(1));
            {
                let pb = pb.clone();
                sim.spawn("s", Some(pb.cpu()), move |ctx| {
                    let vi = pb
                        .create_vi(ctx, ViAttributes::default(), None, None)
                        .unwrap();
                    let buf = pb.malloc(4096);
                    let mh = pb
                        .register_mem(ctx, buf, 4096, MemAttributes::default())
                        .unwrap();
                    for _ in 0..10 {
                        vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 4096))
                            .unwrap();
                    }
                    pb.accept(ctx, &vi, Discriminator(1)).unwrap();
                    ctx.sleep(SimDuration::from_millis(4));
                    while vi.recv_done(ctx).is_some() {}
                });
            }
            {
                let pa = pa.clone();
                sim.spawn("c", Some(pa.cpu()), move |ctx| {
                    let vi = pa
                        .create_vi(ctx, ViAttributes::default(), None, None)
                        .unwrap();
                    pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                        .unwrap();
                    let buf = pa.malloc(4096);
                    let mh = pa
                        .register_mem(ctx, buf, 4096, MemAttributes::default())
                        .unwrap();
                    for _ in 0..10 {
                        vi.post_send(ctx, Descriptor::send().segment(buf, mh, 2500))
                            .unwrap();
                        vi.send_wait(ctx, WaitMode::Poll);
                    }
                });
            }
            let r = sim.run_to_completion();
            (r.end_time, r.events, r.sched)
        };
        assert_eq!(run(), run(), "case loss={loss} seed={seed}");
    }
}

#[test]
fn fault_windows_without_traffic_touch_nothing() {
    // A randomly composed fault plan over an idle fabric must be inert:
    // every San counter stays zero no matter what windows fire, because
    // faults only act on frames in flight.
    let mut gen = SimRng::derive(18, "prop-idle-faults");
    for case in 0..24 {
        let seed = gen.next_u64();
        let sim = Sim::new();
        let san = fabric::San::new(sim.clone(), fabric::NetParams::myrinet(), 2, seed);
        let mut rng = SimRng::derive(seed, "idle-fault-plan");
        let plan = fabric::FaultPlan::randomized(
            &mut rng,
            simkit::SimTime::ZERO + SimDuration::from_micros(50),
            SimDuration::from_micros(3_000),
            2,
        );
        let windows = plan.events().len();
        san.install_faults(&plan);
        sim.run_to_completion();
        let st = san.stats();
        for (name, v) in [
            ("frames_sent", st.frames_sent),
            ("frames_delivered", st.frames_delivered),
            ("frames_dropped", st.frames_dropped),
            ("bytes_delivered", st.bytes_delivered),
            ("frames_corrupted", st.frames_corrupted),
            ("frames_faulted", st.frames_faulted),
        ] {
            assert_eq!(
                v, 0,
                "case {case}: {name} != 0 (seed={seed}, {windows} windows)"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Pure-data properties (no simulation): cheap, so many cases.
// ---------------------------------------------------------------------

#[test]
fn buffer_pool_fresh_fraction_matches_reuse() {
    let mut gen = SimRng::derive(15, "prop-bufpool");
    for _ in 0..256 {
        let reuse = gen.below(101) as u32;
        let iters = 1 + gen.below(1_999);
        // Replays BufferPool::pick's quota arithmetic.
        let mut fresh_used = 0u64;
        for i in 0..iters {
            let quota = ((i + 1) * (100 - reuse) as u64).div_ceil(100);
            if fresh_used < quota {
                fresh_used += 1;
            }
        }
        let want = (iters * (100 - reuse) as u64).div_ceil(100);
        assert_eq!(fresh_used, want, "reuse={reuse} iters={iters}");
        assert!(fresh_used <= iters);
    }
}

#[test]
fn gilbert_elliott_converges_to_analytic_stationary_loss() {
    // Drives the per-link loss automaton directly (the same
    // transition-then-draw order the fabric uses on every frame — each
    // frame rolls it twice in flight, once per link direction) and checks
    // the empirical drop fraction against `LossModel::mean_loss()`, the
    // analytic stationary rate pi_bad = p_g2b / (p_g2b + p_b2g).
    let mut gen = SimRng::derive(17, "prop-gilbert-elliott");
    for case in 0..12 {
        let p_g2b = 0.002 + gen.unit() * 0.08;
        let p_b2g = 0.02 + gen.unit() * 0.30;
        let loss_good = gen.unit() * 0.01;
        let loss_bad = 0.10 + gen.unit() * 0.60;
        let model = fabric::LossModel::GilbertElliott {
            p_g2b,
            p_b2g,
            loss_good,
            loss_bad,
        };
        let mut rng = SimRng::derive(gen.next_u64(), "ge-rolls");
        let mut state = fabric::LossState::new();
        let (mut dropped, mut bad_frames) = (0u64, 0u64);
        const FRAMES: u64 = 400_000;
        for _ in 0..FRAMES {
            if state.roll(&mut rng, model) {
                dropped += 1;
            }
            if state.is_bad() {
                bad_frames += 1;
            }
        }
        let mean = model.mean_loss();
        let pi_bad = p_g2b / (p_g2b + p_b2g);
        // 6-sigma binomial band (the per-frame draws are correlated
        // through the channel state, so pad by the burst length).
        let burst = 1.0 + 1.0 / p_b2g;
        let tol = 6.0 * (mean * (1.0 - mean) * burst / FRAMES as f64).sqrt();
        let empirical = dropped as f64 / FRAMES as f64;
        assert!(
            (empirical - mean).abs() < tol,
            "case {case}: empirical {empirical:.5} vs analytic {mean:.5} (tol {tol:.5}) \
             p_g2b={p_g2b} p_b2g={p_b2g} loss_good={loss_good} loss_bad={loss_bad}"
        );
        let occ_tol = 6.0 * (pi_bad * (1.0 - pi_bad) * burst / FRAMES as f64).sqrt();
        let occupancy = bad_frames as f64 / FRAMES as f64;
        assert!(
            (occupancy - pi_bad).abs() < occ_tol,
            "case {case}: bad-state occupancy {occupancy:.5} vs pi_bad {pi_bad:.5} (tol {occ_tol:.5})"
        );
    }
}

#[test]
fn cpu_usage_utilization_is_bounded() {
    let mut gen = SimRng::derive(16, "prop-cpu");
    for _ in 0..256 {
        let busy = gen.below(10_000_000);
        let elapsed = 1 + gen.below(9_999_999);
        let u = simkit::CpuUsage {
            busy: SimDuration::from_nanos(busy),
            elapsed: SimDuration::from_nanos(elapsed),
        };
        let f = u.utilization();
        assert!((0.0..=1.0).contains(&f), "busy={busy} elapsed={elapsed}");
        if busy >= elapsed {
            assert_eq!(f, 1.0, "busy={busy} elapsed={elapsed}");
        }
    }
}
