//! Repo-level integration tests of multi-node scenarios: fan-in traffic,
//! many concurrent connections, CQ multiplexing across peers, and mixed
//! reliability levels sharing one fabric.

use simkit::{Sim, SimBarrier, SimDuration, WaitMode};
use vibe_suite::via::{
    Cluster, Descriptor, Discriminator, MemAttributes, Profile, QueueKind, Reliability,
    ViAttributes,
};

#[test]
fn eight_clients_fan_into_one_server() {
    const N: usize = 8;
    const MSGS: u64 = 30;
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), N + 1, 3);
    let server = cluster.provider(0);
    // Nobody streams until every connection is accepted (accepting eight
    // clients takes ~9 ms of simulated connection-manager time).
    let start = SimBarrier::new(&sim, N + 1);
    let server_task = {
        let server = server.clone();
        let start = start.clone();
        sim.spawn("server", Some(server.cpu()), move |ctx| {
            let cq = server.create_cq(ctx, 1024).unwrap();
            let mut vis = Vec::new();
            for c in 0..N {
                let vi = server
                    .create_vi(ctx, ViAttributes::default(), None, Some(&cq))
                    .unwrap();
                let buf = server.malloc(4096);
                let mh = server
                    .register_mem(ctx, buf, 4096, MemAttributes::default())
                    .unwrap();
                for _ in 0..8 {
                    vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 4096))
                        .unwrap();
                }
                server.accept(ctx, &vi, Discriminator(c as u64)).unwrap();
                vis.push((vi, buf, mh));
            }
            start.wait(ctx);
            let mut counts = vec![0u64; N];
            let mut immediates = vec![Vec::new(); N];
            for _ in 0..(N as u64 * MSGS) {
                let (vi_id, kind) = cq.wait(ctx, WaitMode::Poll);
                assert_eq!(kind, QueueKind::Recv);
                let idx = vis.iter().position(|(vi, _, _)| vi.id() == vi_id).unwrap();
                let (vi, buf, mh) = &vis[idx];
                let comp = vi.recv_done(ctx).unwrap();
                assert!(comp.is_ok());
                counts[idx] += 1;
                immediates[idx].push(comp.immediate.unwrap());
                vi.post_recv(ctx, Descriptor::recv().segment(*buf, *mh, 4096))
                    .unwrap();
            }
            (counts, immediates)
        })
    };
    for c in 0..N {
        let p = cluster.provider(c + 1);
        let start = start.clone();
        sim.spawn(format!("client{c}"), Some(p.cpu()), move |ctx| {
            let vi = p
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = p.malloc(4096);
            let mh = p
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            p.connect(ctx, &vi, fabric::NodeId(0), Discriminator(c as u64), None)
                .unwrap();
            start.wait(ctx);
            for m in 0..MSGS {
                vi.post_send(
                    ctx,
                    Descriptor::send()
                        .segment(buf, mh, 512)
                        .immediate((c as u32) << 16 | m as u32),
                )
                .unwrap();
                let comp = vi.send_wait(ctx, WaitMode::Poll);
                assert!(comp.is_ok());
                // Pace slightly so eight senders do not exhaust one window.
                ctx.sleep(SimDuration::from_micros(40));
            }
        });
    }
    sim.run_to_completion();
    let (counts, immediates) = server_task.expect_result();
    assert_eq!(counts, vec![MSGS; N]);
    for (c, imms) in immediates.iter().enumerate() {
        // Per-connection FIFO: each client's messages arrive in send order.
        let expect: Vec<u32> = (0..MSGS as u32).map(|m| (c as u32) << 16 | m).collect();
        assert_eq!(imms, &expect, "client {c} order");
    }
}

#[test]
fn pairwise_mesh_of_connections() {
    // Every node pair gets a connection; traffic flows on all of them.
    const NODES: usize = 4;
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::bvia(), NODES, 5);
    let mut tasks = Vec::new();
    for me in 0..NODES {
        let p = cluster.provider(me);
        tasks.push(sim.spawn(format!("node{me}"), Some(p.cpu()), move |ctx| {
            let buf = p.malloc(8192);
            let mh = p
                .register_mem(ctx, buf, 8192, MemAttributes::default())
                .unwrap();
            let mut vis = Vec::new();
            // Deterministic rendezvous: lower index connects, higher accepts.
            for peer in 0..NODES {
                if peer == me {
                    continue;
                }
                let vi = p
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 8192))
                    .unwrap();
                let disc = Discriminator((me.min(peer) * NODES + me.max(peer)) as u64);
                if me < peer {
                    // Give the acceptor time to register its listener.
                    ctx.sleep(SimDuration::from_micros(500));
                    p.connect(ctx, &vi, fabric::NodeId(peer as u32), disc, None)
                        .unwrap();
                } else {
                    p.accept(ctx, &vi, disc).unwrap();
                }
                vis.push(vi);
            }
            // Send one message on every connection, then collect one from
            // every connection.
            for vi in &vis {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 1024))
                    .unwrap();
            }
            let mut got = 0;
            for vi in &vis {
                let c = vi.recv_wait(ctx, WaitMode::Poll);
                assert!(c.is_ok());
                got += 1;
            }
            for vi in &vis {
                assert!(vi.send_wait(ctx, WaitMode::Poll).is_ok());
            }
            got
        }));
    }
    sim.run_to_completion();
    for t in tasks {
        assert_eq!(t.expect_result(), NODES - 1);
    }
}

#[test]
fn mixed_reliability_connections_share_a_fabric() {
    // One UD pair and one RD pair on the same (lossy) cLAN: the RD pair
    // must deliver everything; the UD pair is allowed to lose messages but
    // must not be corrupted by the RD pair's retransmissions.
    let sim = Sim::new();
    let mut profile = Profile::clan();
    profile.net = profile.net.with_loss(0.08);
    let cluster = Cluster::new(sim.clone(), profile, 2, 11);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    const MSGS: u32 = 40;
    let server_task = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi_rd = pb
                .create_vi(
                    ctx,
                    ViAttributes::reliable(Reliability::ReliableDelivery),
                    None,
                    None,
                )
                .unwrap();
            let vi_ud = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pb.malloc(4096);
            let mh = pb
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            for _ in 0..MSGS {
                vi_rd
                    .post_recv(ctx, Descriptor::recv().segment(buf, mh, 4096))
                    .unwrap();
                vi_ud
                    .post_recv(ctx, Descriptor::recv().segment(buf, mh, 4096))
                    .unwrap();
            }
            pb.accept(ctx, &vi_rd, Discriminator(1)).unwrap();
            pb.accept(ctx, &vi_ud, Discriminator(2)).unwrap();
            // Collect every RD message (guaranteed); poll UD best-effort.
            let mut rd_imms = Vec::new();
            for _ in 0..MSGS {
                let c = vi_rd.recv_wait(ctx, WaitMode::Block);
                assert!(c.is_ok());
                rd_imms.push(c.immediate.unwrap());
            }
            ctx.sleep(SimDuration::from_millis(5));
            let mut ud_ok = 0;
            while let Some(c) = vi_ud.recv_done(ctx) {
                if c.is_ok() {
                    ud_ok += 1;
                }
            }
            (rd_imms, ud_ok)
        })
    };
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi_rd = pa
                .create_vi(
                    ctx,
                    ViAttributes::reliable(Reliability::ReliableDelivery),
                    None,
                    None,
                )
                .unwrap();
            let vi_ud = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi_rd, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            pa.connect(ctx, &vi_ud, fabric::NodeId(1), Discriminator(2), None)
                .unwrap();
            let buf = pa.malloc(4096);
            let mh = pa
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            for i in 0..MSGS {
                vi_rd
                    .post_send(ctx, Descriptor::send().segment(buf, mh, 2048).immediate(i))
                    .unwrap();
                let c = vi_rd.send_wait(ctx, WaitMode::Block);
                assert!(c.is_ok());
                vi_ud
                    .post_send(ctx, Descriptor::send().segment(buf, mh, 2048).immediate(i))
                    .unwrap();
                vi_ud.send_wait(ctx, WaitMode::Poll);
            }
        });
    }
    sim.run_to_completion();
    let (rd_imms, ud_ok) = server_task.expect_result();
    assert_eq!(
        rd_imms,
        (0..MSGS).collect::<Vec<_>>(),
        "RD must deliver all, in order"
    );
    assert!(
        ud_ok < MSGS,
        "8% loss must cost the UD connection something"
    );
}

#[test]
fn provider_counters_are_consistent() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::mvia(), 2, 17);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    const MSGS: u64 = 25;
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
            for _ in 0..MSGS {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 4096))
                    .unwrap();
            }
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            for _ in 0..MSGS {
                assert!(vi.recv_wait(ctx, WaitMode::Poll).is_ok());
            }
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
            for _ in 0..MSGS {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 3000))
                    .unwrap();
                assert!(vi.send_wait(ctx, WaitMode::Poll).is_ok());
            }
        });
    }
    sim.run_to_completion();
    let (a, b) = (pa.stats(), pb.stats());
    assert_eq!(a.sends_posted, MSGS);
    assert_eq!(a.msgs_sent, MSGS);
    assert_eq!(b.recvs_posted, MSGS);
    assert_eq!(b.msgs_delivered, MSGS);
    assert_eq!(b.recv_no_descriptor, 0);
    assert_eq!(b.msgs_dropped_partial, 0);
    // Lossless UD: no protocol chatter.
    assert_eq!(a.retransmissions, 0);
    assert_eq!(a.acks_received + b.acks_sent, 0);
    // 3000 B at a 1440 B wire MTU = 3 fragments per message on the fabric.
    let san = cluster.san().stats();
    assert_eq!(san.frames_dropped, 0);
    assert!(san.frames_delivered >= MSGS * 3);
}
