//! End-to-end integration tests of the VIA engine across all three
//! provider profiles: data integrity, fragmentation, scatter/gather,
//! immediate data, completion queues, reliability, RDMA, and error paths.

use simkit::{Sim, SimDuration, WaitMode};
use via::{
    Cluster, Descriptor, Discriminator, MemAttributes, Profile, Reliability, ViAttributes, ViaError,
};

/// Spawn a connected pair and run `server`/`client` bodies against it.
/// Returns (server result, client result).
fn run_pair<S, C, RS, RC>(profile: Profile, seed: u64, server: S, client: C) -> (RS, RC)
where
    S: FnOnce(&mut simkit::ProcessCtx, &via::Provider, &via::Vi) -> RS + Send + 'static,
    C: FnOnce(&mut simkit::ProcessCtx, &via::Provider, &via::Vi) -> RC + Send + 'static,
    RS: Send + 'static,
    RC: Send + 'static,
{
    run_pair_attrs(profile, seed, ViAttributes::default(), server, client)
}

fn run_pair_attrs<S, C, RS, RC>(
    profile: Profile,
    seed: u64,
    attrs: ViAttributes,
    server: S,
    client: C,
) -> (RS, RC)
where
    S: FnOnce(&mut simkit::ProcessCtx, &via::Provider, &via::Vi) -> RS + Send + 'static,
    C: FnOnce(&mut simkit::ProcessCtx, &via::Provider, &via::Vi) -> RC + Send + 'static,
    RS: Send + 'static,
    RC: Send + 'static,
{
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, 2, seed);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            server(ctx, &pb, &vi)
        })
    };
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            client(ctx, &pa, &vi)
        })
    };
    sim.run_to_completion();
    (sh.expect_result(), ch.expect_result())
}

fn patterned(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

// ---------------------------------------------------------------------
// Data integrity across profiles and sizes (exercises fragmentation).
// ---------------------------------------------------------------------

fn roundtrip_sizes(profile: Profile) {
    // Sizes straddle every wire-MTU boundary of all three profiles.
    let sizes = [0u64, 1, 4, 1439, 1440, 1441, 4096, 4097, 8192, 8193, 28672];
    let (got, _) = run_pair(
        profile,
        1,
        move |ctx, p, vi| {
            let mut got = Vec::new();
            for (i, &sz) in sizes.iter().enumerate() {
                let buf = p.malloc(sz.max(1));
                let mh = p
                    .register_mem(ctx, buf, sz.max(1), MemAttributes::default())
                    .unwrap();
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, sz as u32))
                    .unwrap();
                let comp = vi.recv_wait(ctx, WaitMode::Poll);
                assert!(comp.is_ok(), "recv {i} failed: {:?}", comp.status);
                assert_eq!(comp.length, sz);
                got.push(p.mem_read(buf, sz));
            }
            got
        },
        move |ctx, p, vi| {
            for (i, &sz) in sizes.iter().enumerate() {
                let buf = p.malloc(sz.max(1));
                let mh = p
                    .register_mem(ctx, buf, sz.max(1), MemAttributes::default())
                    .unwrap();
                p.mem_write(buf, &patterned(sz as usize, i as u8));
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, sz as u32))
                    .unwrap();
                let comp = vi.send_wait(ctx, WaitMode::Poll);
                assert!(comp.is_ok(), "send {i} failed: {:?}", comp.status);
                // Space sends out so receiver has posted the next recv.
                ctx.sleep(SimDuration::from_millis(1));
            }
        },
    );
    for (i, bytes) in got.iter().enumerate() {
        assert_eq!(
            bytes,
            &patterned(bytes.len(), i as u8),
            "payload {i} corrupted"
        );
    }
}

#[test]
fn roundtrip_all_sizes_mvia() {
    roundtrip_sizes(Profile::mvia());
}

#[test]
fn roundtrip_all_sizes_bvia() {
    roundtrip_sizes(Profile::bvia());
}

#[test]
fn roundtrip_all_sizes_clan() {
    roundtrip_sizes(Profile::clan());
}

// ---------------------------------------------------------------------
// Scatter/gather and immediate data.
// ---------------------------------------------------------------------

#[test]
fn multi_segment_gather_scatter() {
    let (got, _) = run_pair(
        Profile::clan(),
        2,
        |ctx, p, vi| {
            // Receive into three scattered segments.
            let buf = p.malloc(16 * 1024);
            let mh = p
                .register_mem(ctx, buf, 16 * 1024, MemAttributes::default())
                .unwrap();
            let desc = Descriptor::recv()
                .segment(buf, mh, 1000)
                .segment(buf + 5000, mh, 3000)
                .segment(buf + 10000, mh, 2000);
            vi.post_recv(ctx, desc).unwrap();
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok());
            assert_eq!(comp.length, 6000);
            assert_eq!(comp.immediate, Some(0xCAFE));
            let mut out = p.mem_read(buf, 1000);
            out.extend(p.mem_read(buf + 5000, 3000));
            out.extend(p.mem_read(buf + 10000, 2000));
            out
        },
        |ctx, p, vi| {
            // Send from two gathered segments.
            let buf = p.malloc(16 * 1024);
            let mh = p
                .register_mem(ctx, buf, 16 * 1024, MemAttributes::default())
                .unwrap();
            let data = patterned(6000, 7);
            p.mem_write(buf + 100, &data[..2500]);
            p.mem_write(buf + 8000, &data[2500..]);
            let desc = Descriptor::send()
                .segment(buf + 100, mh, 2500)
                .segment(buf + 8000, mh, 3500)
                .immediate(0xCAFE);
            vi.post_send(ctx, desc).unwrap();
            assert!(vi.send_wait(ctx, WaitMode::Poll).is_ok());
        },
    );
    assert_eq!(got, patterned(6000, 7));
}

#[test]
fn zero_length_send_with_immediate() {
    let (imm, _) = run_pair(
        Profile::bvia(),
        3,
        |ctx, p, vi| {
            let buf = p.malloc(64);
            let mh = p
                .register_mem(ctx, buf, 64, MemAttributes::default())
                .unwrap();
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 64))
                .unwrap();
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok());
            assert_eq!(comp.length, 0);
            comp.immediate
        },
        |ctx, _p, vi| {
            // Zero-cost client side: give the server time to post its
            // receive descriptor first (the paper's benchmarks do the same).
            ctx.sleep(SimDuration::from_micros(200));
            vi.post_send(ctx, Descriptor::send().immediate(42)).unwrap();
            assert!(vi.send_wait(ctx, WaitMode::Poll).is_ok());
        },
    );
    assert_eq!(imm, Some(42));
}

// ---------------------------------------------------------------------
// Blocking vs polling waits.
// ---------------------------------------------------------------------

#[test]
fn blocking_wait_adds_interrupt_latency() {
    fn one_way(mode: WaitMode) -> u64 {
        let (t, _) = run_pair(
            Profile::clan(),
            4,
            move |ctx, p, vi| {
                let buf = p.malloc(4096);
                let mh = p
                    .register_mem(ctx, buf, 4096, MemAttributes::default())
                    .unwrap();
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 4096))
                    .unwrap();
                let t0 = ctx.now();
                vi.recv_wait(ctx, mode);
                (ctx.now() - t0).as_nanos()
            },
            |ctx, p, vi| {
                let buf = p.malloc(4096);
                let mh = p
                    .register_mem(ctx, buf, 4096, MemAttributes::default())
                    .unwrap();
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 1024))
                    .unwrap();
                vi.send_wait(ctx, WaitMode::Poll);
            },
        );
        t
    }
    let poll = one_way(WaitMode::Poll);
    let block = one_way(WaitMode::Block);
    let delta = block.saturating_sub(poll);
    // Blocking must cost about one interrupt latency (9 us) extra.
    assert!(
        (8_000..=11_000).contains(&delta),
        "blocking delta = {delta} ns"
    );
}

#[test]
fn polling_burns_cpu_blocking_does_not() {
    fn rx_busy(mode: WaitMode) -> u64 {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 5);
        let (pa, pb) = (cluster.provider(0), cluster.provider(1));
        let sh = {
            let pb = pb.clone();
            sim.spawn("server", Some(pb.cpu()), move |ctx| {
                let vi = pb
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                let buf = pb.malloc(64);
                let mh = pb
                    .register_mem(ctx, buf, 64, MemAttributes::default())
                    .unwrap();
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 64))
                    .unwrap();
                pb.accept(ctx, &vi, Discriminator(1)).unwrap();
                // Busy time of the wait itself, excluding setup/handshake.
                let meter = simkit::CpuMeter::start(ctx.sim(), pb.cpu());
                vi.recv_wait(ctx, mode);
                meter.stop(ctx.sim()).busy.as_nanos()
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
                // Make the receiver wait a long, measurable time.
                ctx.sleep(SimDuration::from_millis(5));
                let buf = pa.malloc(64);
                let mh = pa
                    .register_mem(ctx, buf, 64, MemAttributes::default())
                    .unwrap();
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 64))
                    .unwrap();
                vi.send_wait(ctx, WaitMode::Poll);
            });
        }
        sim.run_to_completion();
        sh.expect_result()
    }
    let poll_busy = rx_busy(WaitMode::Poll);
    let block_busy = rx_busy(WaitMode::Block);
    // The poller burns the full ~5 ms wait; the blocker only pays overheads.
    assert!(poll_busy > 4_000_000, "poll busy = {poll_busy}");
    assert!(block_busy < 500_000, "block busy = {block_busy}");
}

// ---------------------------------------------------------------------
// Completion queues.
// ---------------------------------------------------------------------

#[test]
fn cq_merges_two_vis() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 6);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let cq = pb.create_cq(ctx, 32).unwrap();
            let vi1 = pb
                .create_vi(ctx, ViAttributes::default(), None, Some(&cq))
                .unwrap();
            let vi2 = pb
                .create_vi(ctx, ViAttributes::default(), None, Some(&cq))
                .unwrap();
            for vi in [&vi1, &vi2] {
                let buf = pb.malloc(256);
                let mh = pb
                    .register_mem(ctx, buf, 256, MemAttributes::default())
                    .unwrap();
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 256))
                    .unwrap();
            }
            pb.accept(ctx, &vi1, Discriminator(1)).unwrap();
            pb.accept(ctx, &vi2, Discriminator(2)).unwrap();
            // Collect two completions through the single CQ.
            let mut seen = Vec::new();
            for _ in 0..2 {
                let (vi_id, kind) = cq.wait(ctx, WaitMode::Poll);
                assert_eq!(kind, via::QueueKind::Recv);
                let vi = if vi_id == vi1.id() { &vi1 } else { &vi2 };
                let comp = vi.recv_done(ctx).expect("CQ signaled but queue empty");
                assert!(comp.is_ok());
                seen.push(vi_id);
            }
            assert_eq!(cq.overflows(), 0);
            seen
        })
    };
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi1 = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let vi2 = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi1, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            pa.connect(ctx, &vi2, fabric::NodeId(1), Discriminator(2), None)
                .unwrap();
            for vi in [&vi2, &vi1] {
                let buf = pa.malloc(256);
                let mh = pa
                    .register_mem(ctx, buf, 256, MemAttributes::default())
                    .unwrap();
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 128))
                    .unwrap();
                vi.send_wait(ctx, WaitMode::Poll);
            }
        });
    }
    sim.run_to_completion();
    let seen = sh.expect_result();
    assert_eq!(seen.len(), 2);
    assert_ne!(seen[0], seen[1], "both VIs must surface through the CQ");
}

#[test]
fn cq_overflow_is_counted() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 61);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let cq = pb.create_cq(ctx, 2).unwrap(); // tiny CQ
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, Some(&cq))
                .unwrap();
            let buf = pb.malloc(4096);
            let mh = pb
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            for _ in 0..4 {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 64))
                    .unwrap();
            }
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            // Sleep until all four messages have landed, then count.
            ctx.sleep(SimDuration::from_millis(10));
            let mut entries = 0;
            while cq.done(ctx).is_some() {
                entries += 1;
            }
            (entries, cq.overflows())
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
            let buf = pa.malloc(64);
            let mh = pa
                .register_mem(ctx, buf, 64, MemAttributes::default())
                .unwrap();
            for _ in 0..4 {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 64))
                    .unwrap();
                vi.send_wait(ctx, WaitMode::Poll);
            }
        });
    }
    sim.run_to_completion();
    let (entries, overflows) = sh.expect_result();
    assert_eq!(entries, 2);
    assert_eq!(overflows, 2);
}

// ---------------------------------------------------------------------
// Reliability.
// ---------------------------------------------------------------------

#[test]
fn reliable_delivery_survives_loss() {
    let sim = Sim::new();
    let mut profile = Profile::clan();
    profile.net = profile.net.with_loss(0.15);
    let cluster = Cluster::new(sim.clone(), profile, 2, 42);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let attrs = ViAttributes::reliable(Reliability::ReliableDelivery);
    let n_msgs = 50u32;
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(8192);
            let mh = pb
                .register_mem(ctx, buf, 8192, MemAttributes::default())
                .unwrap();
            for _ in 0..n_msgs {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 8192))
                    .unwrap();
            }
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            let mut received = Vec::new();
            for _ in 0..n_msgs {
                let comp = vi.recv_wait(ctx, WaitMode::Block);
                assert!(comp.is_ok(), "{:?}", comp.status);
                received.push(comp.immediate.unwrap());
            }
            received
        })
    };
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let buf = pa.malloc(8192);
            let mh = pa
                .register_mem(ctx, buf, 8192, MemAttributes::default())
                .unwrap();
            for i in 0..n_msgs {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 6000).immediate(i))
                    .unwrap();
                let comp = vi.send_wait(ctx, WaitMode::Block);
                assert!(comp.is_ok(), "send {i}: {:?}", comp.status);
            }
        });
    }
    sim.run_to_completion();
    let received = sh.expect_result();
    // Every message arrives exactly once, in order, despite 15% frame loss.
    assert_eq!(received, (0..n_msgs).collect::<Vec<_>>());
    assert!(
        pa.stats().retransmissions > 0,
        "loss at 15% must force retransmissions"
    );
}

#[test]
fn zero_loss_stream_cancels_every_retransmit_timer() {
    // On a loss-free fabric every ACK must arrive before its retransmission
    // timer expires, so the transport should *cancel* (never fire) each
    // timer it arms — the regression this guards is the old engine's
    // un-cancellable closures, which kept dead retransmit timers queued
    // (and firing as no-ops) long after the message completed.
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 7);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let attrs = ViAttributes::reliable(Reliability::ReliableDelivery);
    let n_msgs = 40u32;
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(8192);
            let mh = pb
                .register_mem(ctx, buf, 8192, MemAttributes::default())
                .unwrap();
            for _ in 0..n_msgs {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 8192))
                    .unwrap();
            }
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            let mut got = 0u32;
            for _ in 0..n_msgs {
                assert!(vi.recv_wait(ctx, WaitMode::Block).is_ok());
                got += 1;
            }
            got
        })
    };
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let buf = pa.malloc(8192);
            let mh = pa
                .register_mem(ctx, buf, 8192, MemAttributes::default())
                .unwrap();
            for i in 0..n_msgs {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 6000).immediate(i))
                    .unwrap();
                assert!(vi.send_wait(ctx, WaitMode::Block).is_ok());
            }
        });
    }
    sim.run_to_completion();
    assert_eq!(sh.expect_result(), n_msgs);
    let stats = pa.stats();
    assert_eq!(
        stats.retransmissions, 0,
        "loss-free stream never retransmits"
    );
    assert_eq!(
        stats.retx_timers_armed, n_msgs as u64,
        "one retransmit timer per reliable message"
    );
    assert_eq!(
        stats.retx_timers_cancelled, stats.retx_timers_armed,
        "every timer must be disarmed by its ACK, not left to fire"
    );
    // Cross-check against the scheduler's own per-class ledger: the only
    // cancellable events in the Retransmit class are these timers, so the
    // class tally must agree with the provider, and — because the run
    // drains the queue — every cancelled entry must have been reaped.
    let retx = sim.sched_stats().class(simkit::EventClass::Retransmit);
    assert_eq!(retx.cancelled, stats.retx_timers_cancelled);
    assert_eq!(retx.dead_popped, retx.cancelled, "lazy reap must drain");
}

#[test]
fn unreliable_mode_drops_on_loss() {
    let sim = Sim::new();
    let mut profile = Profile::clan();
    profile.net = profile.net.with_loss(0.25);
    let cluster = Cluster::new(sim.clone(), profile, 2, 43);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let n_msgs = 60u32;
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pb.malloc(4096);
            let mh = pb
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            for _ in 0..n_msgs {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 4096))
                    .unwrap();
            }
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            // Drain whatever arrives within a generous window.
            ctx.sleep(SimDuration::from_millis(50));
            let mut ok = 0u32;
            while let Some(c) = vi.recv_done(ctx) {
                if c.is_ok() {
                    ok += 1;
                }
            }
            ok
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
            let buf = pa.malloc(4096);
            let mh = pa
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            for i in 0..n_msgs {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 2048).immediate(i))
                    .unwrap();
                vi.send_wait(ctx, WaitMode::Poll);
            }
        });
    }
    sim.run_to_completion();
    let delivered = sh.expect_result();
    assert!(delivered < n_msgs, "25% loss must lose messages");
    assert!(delivered > 0, "some messages must get through");
    assert_eq!(
        pa.stats().retransmissions,
        0,
        "unreliable never retransmits"
    );
}

#[test]
fn reliable_reception_completes_after_placement() {
    // RR send completion must never arrive before the receiver's data is in
    // memory: check that the sender's completion time ≥ one full transfer.
    let (recv_done_at, send_done_at) = run_pair_attrs(
        Profile::clan(),
        8,
        ViAttributes::reliable(Reliability::ReliableReception),
        |ctx, p, vi| {
            let buf = p.malloc(16 * 1024);
            let mh = p
                .register_mem(ctx, buf, 16 * 1024, MemAttributes::default())
                .unwrap();
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 16 * 1024))
                .unwrap();
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok());
            ctx.now().as_nanos()
        },
        |ctx, p, vi| {
            let buf = p.malloc(16 * 1024);
            let mh = p
                .register_mem(ctx, buf, 16 * 1024, MemAttributes::default())
                .unwrap();
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 16 * 1024))
                .unwrap();
            let comp = vi.send_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok());
            ctx.now().as_nanos()
        },
    );
    assert!(
        send_done_at > recv_done_at,
        "RR completion ({send_done_at}) must follow remote placement ({recv_done_at})"
    );
}

#[test]
fn retry_exhaustion_kills_connection() {
    // Total data blackout: the connection dialog still succeeds (it rides
    // the loss-exempt control channel, like real kernel-mediated CMs), but
    // every data frame vanishes, so a reliable send must exhaust its
    // retries and complete with ConnectionLost.
    let sim = Sim::new();
    let mut profile = Profile::clan();
    profile.net = profile.net.with_loss(1.0);
    profile.data.max_retries = 3;
    profile.data.retransmit_timeout = SimDuration::from_micros(200);
    let cluster = Cluster::new(sim.clone(), profile, 2, 44);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let attrs = ViAttributes::reliable(Reliability::ReliableDelivery);
    {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
        });
    }
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let buf = pa.malloc(64);
            let mh = pa
                .register_mem(ctx, buf, 64, MemAttributes::default())
                .unwrap();
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 64))
                .unwrap();
            let comp = vi.send_wait(ctx, WaitMode::Block);
            (comp.status, vi.conn_state())
        })
    };
    sim.run_to_completion();
    let (status, conn) = ch.expect_result();
    assert_eq!(status, Err(ViaError::ConnectionLost));
    assert_eq!(
        conn,
        via::ConnState::Error {
            cause: via::ErrorCause::RetryExhausted
        }
    );
    assert_eq!(pa.stats().retransmissions, 3);
}

#[test]
fn send_fails_with_connection_lost_after_retries() {
    // Connect over a lossy-but-workable fabric, then count a send that can
    // never be acked: drive loss to certainty by exhausting max_retries=2
    // at 90% loss (p(all 3 attempts+acks survive) ≈ tiny; seed chosen so
    // the handshake itself succeeds).
    let sim = Sim::new();
    let mut profile = Profile::clan();
    profile.net = profile.net.with_loss(0.9);
    profile.data.max_retries = 2;
    profile.data.retransmit_timeout = SimDuration::from_micros(300);
    let cluster = Cluster::new(sim.clone(), profile, 2, 1203);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let attrs = ViAttributes::reliable(Reliability::ReliableDelivery);
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).ok()
        })
    };
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let buf = pa.malloc(64);
            let mh = pa
                .register_mem(ctx, buf, 64, MemAttributes::default())
                .unwrap();
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 64))
                .unwrap();
            let comp = vi.send_wait(ctx, WaitMode::Block);
            Some(comp.status)
        })
    };
    sim.run_to_completion();
    let _ = sh.take_result();
    // Either the send eventually got through (lucky frames) or it failed
    // with ConnectionLost — both are legal; what must never happen is a
    // hang (run_to_completion above proves progress).
    if let Some(Some(Err(e))) = ch.take_result() {
        assert_eq!(e, ViaError::ConnectionLost);
    }
}

// ---------------------------------------------------------------------
// RDMA.
// ---------------------------------------------------------------------

#[test]
fn rdma_write_places_data_without_recv_descriptor() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 9);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    // The server publishes (va, handle) out of band via this shared slot.
    let slot = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let sh = {
        let pb = pb.clone();
        let slot = slot.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pb.malloc(8192);
            let mh = pb
                .register_mem(
                    ctx,
                    buf,
                    8192,
                    MemAttributes {
                        enable_rdma_write: true,
                        enable_rdma_read: false,
                    },
                )
                .unwrap();
            *slot.lock() = Some((buf, mh));
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            ctx.sleep(SimDuration::from_millis(5)); // let the write land
            pb.mem_read(buf + 16, 3000)
        })
    };
    {
        let pa = pa.clone();
        let slot = slot.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let (rva, rmh) = slot.lock().expect("server registered first");
            let buf = pa.malloc(4096);
            let mh = pa
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            pa.mem_write(buf, &patterned(3000, 99));
            let desc = Descriptor::rdma_write(rva + 16, rmh).segment(buf, mh, 3000);
            vi.post_send(ctx, desc).unwrap();
            assert!(vi.send_wait(ctx, WaitMode::Poll).is_ok());
        });
    }
    sim.run_to_completion();
    assert_eq!(sh.expect_result(), patterned(3000, 99));
    assert_eq!(pb.stats().rdma_writes_in, 1);
    assert_eq!(pb.stats().recvs_posted, 0);
}

#[test]
fn rdma_write_with_immediate_consumes_recv_descriptor() {
    let slot = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let slot2 = slot.clone();
    let (got_imm, _) = run_pair(
        Profile::clan(),
        10,
        move |ctx, p, vi| {
            let buf = p.malloc(4096);
            let mh = p
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            *slot.lock() = Some((buf, mh));
            vi.post_recv(ctx, Descriptor::recv()).unwrap(); // zero-segment recv for the imm
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok());
            comp.immediate
        },
        move |ctx, p, vi| {
            // Wait for the server to publish its buffer.
            while slot2.lock().is_none() {
                ctx.sleep(SimDuration::from_micros(50));
            }
            let (rva, rmh) = slot2.lock().unwrap();
            let buf = p.malloc(4096);
            let mh = p
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            let desc = Descriptor::rdma_write(rva, rmh)
                .segment(buf, mh, 512)
                .immediate(777);
            vi.post_send(ctx, desc).unwrap();
            assert!(vi.send_wait(ctx, WaitMode::Poll).is_ok());
        },
    );
    assert_eq!(got_imm, Some(777));
}

#[test]
fn rdma_write_protection_violation_is_refused() {
    let slot = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let slot2 = slot.clone();
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 11);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pb.malloc(4096);
            // RDMA write NOT enabled on this registration.
            let mh = pb
                .register_mem(
                    ctx,
                    buf,
                    4096,
                    MemAttributes {
                        enable_rdma_write: false,
                        enable_rdma_read: false,
                    },
                )
                .unwrap();
            *slot.lock() = Some((buf, mh));
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            ctx.sleep(SimDuration::from_millis(2));
            pb.mem_read(buf, 16)
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
            let (rva, rmh) = slot2.lock().expect("published");
            let buf = pa.malloc(4096);
            let mh = pa
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            pa.mem_write(buf, &[0xFFu8; 16]);
            vi.post_send(ctx, Descriptor::rdma_write(rva, rmh).segment(buf, mh, 16))
                .unwrap();
            vi.send_wait(ctx, WaitMode::Poll);
        });
    }
    sim.run_to_completion();
    // Memory untouched, violation counted.
    assert_eq!(sh.expect_result(), vec![0u8; 16]);
    assert_eq!(pb.stats().protection_errors, 1);
    assert_eq!(pb.stats().rdma_writes_in, 0);
    let _ = pa;
}

#[test]
fn rdma_read_fetches_remote_memory() {
    // RDMA read is an extension (no paper profile enables it): use custom.
    let mut profile = Profile::custom();
    profile.supports_rdma_read = true;
    let slot = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let slot2 = slot.clone();
    let attrs = ViAttributes {
        enable_rdma_read: true,
        ..Default::default()
    };
    let (_, got) = run_pair_attrs(
        profile,
        12,
        attrs,
        move |ctx, p, _vi| {
            let buf = p.malloc(8192);
            let mh = p
                .register_mem(
                    ctx,
                    buf,
                    8192,
                    MemAttributes {
                        enable_rdma_write: false,
                        enable_rdma_read: true,
                    },
                )
                .unwrap();
            p.mem_write(buf + 100, &patterned(5000, 3));
            *slot.lock() = Some((buf, mh));
            ctx.sleep(SimDuration::from_millis(5));
        },
        move |ctx, p, vi| {
            while slot2.lock().is_none() {
                ctx.sleep(SimDuration::from_micros(50));
            }
            let (rva, rmh) = slot2.lock().unwrap();
            let buf = p.malloc(8192);
            let mh = p
                .register_mem(ctx, buf, 8192, MemAttributes::default())
                .unwrap();
            let desc = Descriptor::rdma_read(rva + 100, rmh).segment(buf, mh, 5000);
            vi.post_send(ctx, desc).unwrap();
            let comp = vi.send_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok());
            assert_eq!(comp.length, 5000);
            p.mem_read(buf, 5000)
        },
    );
    assert_eq!(got, patterned(5000, 3));
}

// ---------------------------------------------------------------------
// Error paths and API misuse.
// ---------------------------------------------------------------------

#[test]
fn post_on_unconnected_vi_fails() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 13);
    let pa = cluster.provider(0);
    sim.spawn("p", Some(pa.cpu()), move |ctx| {
        let vi = pa
            .create_vi(ctx, ViAttributes::default(), None, None)
            .unwrap();
        let buf = pa.malloc(64);
        let mh = pa
            .register_mem(ctx, buf, 64, MemAttributes::default())
            .unwrap();
        let r = vi.post_send(ctx, Descriptor::send().segment(buf, mh, 64));
        assert_eq!(r, Err(ViaError::InvalidState));
    });
    sim.run_to_completion();
}

#[test]
fn oversized_send_is_rejected() {
    run_pair(
        Profile::bvia(), // 32 KiB max transfer size
        14,
        |ctx, _p, _vi| {
            ctx.sleep(SimDuration::from_millis(1));
        },
        |ctx, p, vi| {
            let len = 64 * 1024;
            let buf = p.malloc(len);
            let mh = p
                .register_mem(ctx, buf, len, MemAttributes::default())
                .unwrap();
            let r = vi.post_send(ctx, Descriptor::send().segment(buf, mh, len as u32));
            assert_eq!(r, Err(ViaError::DescriptorError));
        },
    );
}

#[test]
fn unregistered_memory_is_rejected() {
    run_pair(
        Profile::clan(),
        15,
        |ctx, _p, _vi| ctx.sleep(SimDuration::from_millis(1)),
        |ctx, p, vi| {
            let buf = p.malloc(4096);
            let mh = p
                .register_mem(ctx, buf, 100, MemAttributes::default())
                .unwrap();
            // Segment extends past the registered 100 bytes.
            let r = vi.post_send(ctx, Descriptor::send().segment(buf, mh, 200));
            assert_eq!(r, Err(ViaError::DescriptorError));
            // Deregistered handle.
            p.deregister_mem(ctx, mh).unwrap();
            let r = vi.post_send(ctx, Descriptor::send().segment(buf, mh, 50));
            assert_eq!(r, Err(ViaError::InvalidMemHandle));
        },
    );
}

#[test]
fn message_longer_than_recv_buffer_completes_in_error() {
    let (status, _) = run_pair(
        Profile::clan(),
        16,
        |ctx, p, vi| {
            let buf = p.malloc(4096);
            let mh = p
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 100))
                .unwrap();
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            comp.status
        },
        |ctx, p, vi| {
            let buf = p.malloc(4096);
            let mh = p
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 2000))
                .unwrap();
            vi.send_wait(ctx, WaitMode::Poll);
        },
    );
    assert_eq!(status, Err(ViaError::DescriptorError));
}

#[test]
fn send_without_posted_recv_is_dropped_and_counted() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 17);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            ctx.sleep(SimDuration::from_millis(2));
        });
    }
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let buf = pa.malloc(64);
            let mh = pa
                .register_mem(ctx, buf, 64, MemAttributes::default())
                .unwrap();
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 64))
                .unwrap();
            vi.send_wait(ctx, WaitMode::Poll); // unreliable: completes at wire
        });
    }
    sim.run_to_completion();
    assert_eq!(pb.stats().recv_no_descriptor, 1);
    assert_eq!(pb.stats().msgs_delivered, 0);
}

#[test]
fn reliability_mismatch_is_rejected() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 18);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(
                    ctx,
                    ViAttributes::reliable(Reliability::ReliableDelivery),
                    None,
                    None,
                )
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1))
        })
    };
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
        })
    };
    sim.run_to_completion();
    assert_eq!(sh.expect_result(), Err(ViaError::ConnectFailed));
    assert_eq!(ch.expect_result(), Err(ViaError::ConnectFailed));
}

#[test]
fn unsupported_reliability_rejected_at_create() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::bvia(), 2, 19);
    let pa = cluster.provider(0);
    sim.spawn("p", Some(pa.cpu()), move |ctx| {
        let r = pa.create_vi(
            ctx,
            ViAttributes::reliable(Reliability::ReliableDelivery),
            None,
            None,
        );
        assert!(matches!(r, Err(ViaError::NotSupported)));
    });
    sim.run_to_completion();
}

#[test]
fn rdma_unsupported_on_bvia() {
    run_pair(
        Profile::bvia(),
        20,
        |ctx, _p, _vi| ctx.sleep(SimDuration::from_millis(1)),
        |ctx, p, vi| {
            let buf = p.malloc(64);
            let mh = p
                .register_mem(ctx, buf, 64, MemAttributes::default())
                .unwrap();
            let r = vi.post_send(ctx, Descriptor::rdma_write(0x1000, mh).segment(buf, mh, 16));
            assert_eq!(r, Err(ViaError::NotSupported));
        },
    );
}

#[test]
fn queue_depth_limit_enforced() {
    let mut profile = Profile::clan();
    profile.max_queue_depth = 4;
    run_pair(
        profile,
        21,
        |ctx, _p, _vi| ctx.sleep(SimDuration::from_millis(5)),
        |ctx, p, vi| {
            let buf = p.malloc(4096);
            let mh = p
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            let mut hit_full = false;
            for _ in 0..10 {
                match vi.post_send(ctx, Descriptor::send().segment(buf, mh, 4096)) {
                    Ok(()) => {}
                    Err(ViaError::QueueFull) => {
                        hit_full = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
            assert!(
                hit_full,
                "posting 10 into a depth-4 queue must hit QueueFull"
            );
        },
    );
}

#[test]
fn disconnect_then_reconnect_works() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 22);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            // Wait to observe the client-initiated disconnect.
            while matches!(vi.conn_state(), via::ConnState::Connected { .. }) {
                ctx.sleep(SimDuration::from_micros(100));
            }
            // Accept a second connection on the same VI.
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            matches!(vi.conn_state(), via::ConnState::Connected { .. })
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
            pa.disconnect(ctx, &vi).unwrap();
            ctx.sleep(SimDuration::from_millis(1));
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
        });
    }
    sim.run_to_completion();
    assert!(sh.expect_result());
}

#[test]
fn teardown_under_load_flushes_credits_and_leaks_nothing() {
    // Disconnect while the credit ledger is dry and the peer is stalled:
    // two sends in flight (unacknowledged — the peer posted no receives),
    // three more parked on credits. The teardown must flush all five as
    // ConnectionLost and leave both providers audit-clean.
    let mut profile = Profile::clan();
    profile.credit_flow.initial = 2;
    // Keep the retransmitter quiet for the test's duration so the
    // in-flight sends are still outstanding when the teardown lands.
    profile.data.retransmit_timeout = SimDuration::from_millis(50);
    profile.data.max_rto = SimDuration::from_millis(50);
    let attrs = ViAttributes::reliable(Reliability::ReliableDelivery);
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, 2, 33);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            // Stalled peer: no receives posted, no ACKs, no grants.
            ctx.sleep(SimDuration::from_millis(10));
        });
    }
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let buf = pa.malloc(512);
            let mh = pa
                .register_mem(ctx, buf, 512, MemAttributes::default())
                .unwrap();
            for _ in 0..5 {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 512))
                    .unwrap();
            }
            assert_eq!(vi.sends_credit_parked(), 3, "5 posts on 2 credits");
            // Let the two credited sends reach the (descriptor-less) peer.
            ctx.sleep(SimDuration::from_millis(1));
            pa.disconnect(ctx, &vi).unwrap();
            // Every send — in flight or credit-parked — flushes exactly
            // once, as ConnectionLost.
            let mut lost = 0;
            for _ in 0..5 {
                let c = vi.send_wait(ctx, WaitMode::Poll);
                assert_eq!(c.status, Err(ViaError::ConnectionLost));
                lost += 1;
            }
            assert_eq!(vi.sends_credit_parked(), 0);
            lost
        })
    };
    sim.run_to_completion();
    assert_eq!(ch.expect_result(), 5);
    let audit = cluster.audit();
    assert!(audit.is_clean(), "{:?}", audit.violations);
}

#[test]
fn destroy_vi_guards() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 23);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            ctx.sleep(SimDuration::from_millis(1));
        });
    }
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            // Connected VI cannot be destroyed.
            assert_eq!(pa.destroy_vi(ctx, vi.clone()), Err(ViaError::Busy));
            pa.disconnect(ctx, &vi).unwrap();
            assert!(pa.destroy_vi(ctx, vi).is_ok());
            assert_eq!(pa.active_vis(), 0);
        });
    }
    sim.run_to_completion();
}

#[test]
fn destroy_cq_guarded_by_references() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 24);
    let pa = cluster.provider(0);
    sim.spawn("p", Some(pa.cpu()), move |ctx| {
        let cq = pa.create_cq(ctx, 8).unwrap();
        let vi = pa
            .create_vi(ctx, ViAttributes::default(), Some(&cq), None)
            .unwrap();
        assert_eq!(pa.destroy_cq(ctx, cq.clone()), Err(ViaError::Busy));
        pa.destroy_vi(ctx, vi).unwrap();
        assert!(pa.destroy_cq(ctx, cq).is_ok());
    });
    sim.run_to_completion();
}

#[test]
fn determinism_same_seed_same_timeline() {
    fn run_once() -> (u64, u64) {
        let sim = Sim::new();
        let mut profile = Profile::bvia();
        profile.net = profile.net.with_loss(0.05);
        let cluster = Cluster::new(sim.clone(), profile, 2, 777);
        let (pa, pb) = (cluster.provider(0), cluster.provider(1));
        {
            let pb = pb.clone();
            sim.spawn("server", Some(pb.cpu()), move |ctx| {
                let vi = pb
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                let buf = pb.malloc(8192);
                let mh = pb
                    .register_mem(ctx, buf, 8192, MemAttributes::default())
                    .unwrap();
                for _ in 0..20 {
                    vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 8192))
                        .unwrap();
                }
                pb.accept(ctx, &vi, Discriminator(1)).unwrap();
                ctx.sleep(SimDuration::from_millis(20));
                while vi.recv_done(ctx).is_some() {}
            });
        }
        {
            let pa = pa.clone();
            sim.spawn("client", Some(pa.cpu()), move |ctx| {
                let vi = pa
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                    .unwrap();
                let buf = pa.malloc(8192);
                let mh = pa
                    .register_mem(ctx, buf, 8192, MemAttributes::default())
                    .unwrap();
                for _ in 0..20 {
                    vi.post_send(ctx, Descriptor::send().segment(buf, mh, 6000))
                        .unwrap();
                    vi.send_wait(ctx, WaitMode::Poll);
                }
            });
        }
        let report = sim.run_to_completion();
        (report.end_time.as_nanos(), report.events)
    }
    assert_eq!(run_once(), run_once(), "same seed must replay identically");
}

// ---------------------------------------------------------------------
// Message-lifecycle tracing.
// ---------------------------------------------------------------------

#[test]
fn trace_captures_full_message_lifecycle() {
    use trace::{TraceConfig, TracePoint};

    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::bvia(), 2, 7);
    let tracer = cluster.enable_trace(TraceConfig::default());
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pb.malloc(4096);
            let mh = pb
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 4096))
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            vi.recv_wait(ctx, WaitMode::Poll)
        });
    }
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let buf = pa.malloc(4096);
            let mh = pa
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 1024))
                .unwrap();
            vi.send_wait(ctx, WaitMode::Poll)
        });
    }
    sim.run_to_completion();

    // Every NIC-offload lifecycle stage fired at least once.
    for point in [
        TracePoint::SendPosted,
        TracePoint::DoorbellRing,
        TracePoint::DevQueued,
        TracePoint::FwScan,
        TracePoint::DescFetch,
        TracePoint::Translated,
        TracePoint::DmaStart,
        TracePoint::DmaEnd,
        TracePoint::WireTx,
        TracePoint::WireRx,
        TracePoint::RecvLanded,
        TracePoint::CqCompletion,
    ] {
        assert!(tracer.count(point) > 0, "no {point:?} records");
    }

    // The client's data message carries one MsgId across both nodes.
    let records = tracer.records();
    let msg = records
        .iter()
        .find(|r| r.point == TracePoint::SendPosted && r.node == 0)
        .and_then(|r| r.msg)
        .expect("client posted a send");
    let chain: Vec<_> = records.iter().filter(|r| r.msg == Some(msg)).collect();
    assert!(chain
        .iter()
        .any(|r| r.point == TracePoint::WireTx && r.node == 0));
    assert!(chain
        .iter()
        .any(|r| r.point == TracePoint::WireRx && r.node == 1));
    assert!(chain
        .iter()
        .any(|r| r.point == TracePoint::RecvLanded && r.node == 1));
    let posted = chain
        .iter()
        .find(|r| r.point == TracePoint::SendPosted)
        .unwrap()
        .at_ns;
    let landed = chain
        .iter()
        .find(|r| r.point == TracePoint::RecvLanded)
        .unwrap()
        .at_ns;
    assert!(posted < landed, "post must precede landing in sim time");

    // The engine counted the scheduler events behind those lifecycle points.
    assert!(sim.sched_stats().fired > 0);
}

#[test]
fn tracing_does_not_perturb_the_timeline() {
    /// End of run, then the instant each receive and each send completed.
    fn run_once(profile: Profile, traced: bool) -> (u64, Vec<u64>, Vec<u64>) {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.clone(), profile, 2, 42);
        if traced {
            cluster.enable_trace(trace::TraceConfig::default());
        }
        let (pa, pb) = (cluster.provider(0), cluster.provider(1));
        let sh = {
            let pb = pb.clone();
            sim.spawn("server", Some(pb.cpu()), move |ctx| {
                let vi = pb
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                let buf = pb.malloc(8192);
                let mh = pb
                    .register_mem(ctx, buf, 8192, MemAttributes::default())
                    .unwrap();
                for _ in 0..8 {
                    vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 8192))
                        .unwrap();
                }
                pb.accept(ctx, &vi, Discriminator(1)).unwrap();
                let mut done = Vec::new();
                for _ in 0..8 {
                    assert!(vi.recv_wait(ctx, WaitMode::Poll).is_ok());
                    done.push(ctx.now().as_nanos());
                }
                done
            })
        };
        let ch = {
            let pa = pa.clone();
            sim.spawn("client", Some(pa.cpu()), move |ctx| {
                let vi = pa
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                    .unwrap();
                let buf = pa.malloc(8192);
                let mh = pa
                    .register_mem(ctx, buf, 8192, MemAttributes::default())
                    .unwrap();
                let mut done = Vec::new();
                for _ in 0..8 {
                    vi.post_send(ctx, Descriptor::send().segment(buf, mh, 6000))
                        .unwrap();
                    assert!(vi.send_wait(ctx, WaitMode::Poll).is_ok());
                    done.push(ctx.now().as_nanos());
                }
                done
            })
        };
        let report = sim.run_to_completion();
        (
            report.end_time.as_nanos(),
            sh.expect_result(),
            ch.expect_result(),
        )
    }
    for profile in Profile::paper_trio() {
        assert_eq!(
            run_once(profile.clone(), false),
            run_once(profile.clone(), true),
            "{}: tracing is observational: identical timeline with and without it",
            profile.name
        );
    }
}
