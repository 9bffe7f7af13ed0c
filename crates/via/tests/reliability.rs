//! Reliable-delivery protocol robustness under injected frame loss: data
//! loss is absorbed by retransmission, ACK loss by duplicate detection
//! (the receiver drops the dup and re-ACKs), and every message is still
//! delivered exactly once, in order.

use simkit::{Sim, SimDuration, WaitMode};
use via::{Cluster, Descriptor, Discriminator, MemAttributes, Profile, ViAttributes};

const MSGS: u64 = 32;
const MSG_LEN: u32 = 1024;

#[test]
fn retransmit_absorbs_data_and_ack_loss_with_duplicate_dedup() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 21);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let san = cluster.san().clone();
    let attrs = ViAttributes::reliable(via::Reliability::ReliableDelivery);
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(MSGS * MSG_LEN as u64);
            let mh = pb
                .register_mem(ctx, buf, MSGS * MSG_LEN as u64, MemAttributes::default())
                .unwrap();
            for i in 0..MSGS {
                vi.post_recv(
                    ctx,
                    Descriptor::recv().segment(buf + i * MSG_LEN as u64, mh, MSG_LEN),
                )
                .unwrap();
            }
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            let mut ok = 0u64;
            for _ in 0..MSGS {
                if vi.recv_wait(ctx, WaitMode::Block).is_ok() {
                    ok += 1;
                }
            }
            ok
        })
    };
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            // Heavy bidirectional loss on the server's link for the whole
            // stream: inbound data and outbound ACKs both die often. The
            // retry budget must ride it out without a connection failure.
            san.install_faults(&fabric::FaultPlan::new().degrade(
                fabric::NodeId(1),
                ctx.now() + SimDuration::from_micros(10),
                SimDuration::from_millis(200),
                SimDuration::from_micros(1),
                0.35,
            ));
            let buf = pa.malloc(MSG_LEN as u64);
            let mh = pa
                .register_mem(ctx, buf, MSG_LEN as u64, MemAttributes::default())
                .unwrap();
            for i in 0..MSGS {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, MSG_LEN))
                    .unwrap();
                let c = vi.send_wait(ctx, WaitMode::Block);
                assert!(c.is_ok(), "send {i}: {:?}", c.status);
            }
        })
    };
    sim.run_to_completion();
    assert_eq!(sh.expect_result(), MSGS, "exactly-once, in-order delivery");
    ch.expect_result();

    let (cs, ss) = (pa.stats(), pb.stats());
    assert_eq!(ss.msgs_delivered, MSGS);
    assert_eq!(
        cs.conn_failures, 0,
        "loss must not exhaust the retry budget"
    );
    assert!(
        cs.retransmissions > 0,
        "0.35 loss must force retransmissions"
    );
    // A lost ACK means the retransmit arrives at a receiver that already
    // delivered the message: it must be discarded as a duplicate and
    // re-ACKed, never handed to a second descriptor.
    assert!(
        ss.duplicates_dropped > 0,
        "ACK loss must surface duplicates"
    );
    assert_eq!(
        ss.acks_sent,
        ss.msgs_delivered + ss.duplicates_dropped,
        "one ACK per delivery plus one per discarded duplicate"
    );
    // Exactly one ACK copy per message survives the lossy link: a dup at
    // the receiver implies the earlier ACK died (the RTO here is far above
    // the RTT, so a live ACK always beats the timer), and the sender only
    // stops retransmitting once some copy lands.
    assert_eq!(cs.acks_received, MSGS);
}

#[test]
fn spurious_retransmits_after_delayed_acks_are_deduped_end_to_end() {
    // The complementary race: nothing is lost, but a latency fault holds
    // the round trip far above a deliberately tiny RTO, so every message
    // is retransmitted while its ACK is still in flight. The receiver must
    // drop each duplicate and re-ACK it, and the sender must absorb the
    // extra ACKs for already-completed sends without minting a second
    // completion.
    const N: u64 = 8;
    let sim = Sim::new();
    let mut p = Profile::clan();
    p.data.retransmit_timeout = SimDuration::from_micros(20);
    let cluster = Cluster::new(sim.clone(), p, 2, 5);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let san = cluster.san().clone();
    let attrs = ViAttributes::reliable(via::Reliability::ReliableDelivery);
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(N * MSG_LEN as u64);
            let mh = pb
                .register_mem(ctx, buf, N * MSG_LEN as u64, MemAttributes::default())
                .unwrap();
            for i in 0..N {
                vi.post_recv(
                    ctx,
                    Descriptor::recv().segment(buf + i * MSG_LEN as u64, mh, MSG_LEN),
                )
                .unwrap();
            }
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            for _ in 0..N {
                assert!(vi.recv_wait(ctx, WaitMode::Block).is_ok());
            }
        })
    };
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            // +200 us each way on the server's link: RTT >> the 20 us RTO.
            san.install_faults(&fabric::FaultPlan::new().degrade(
                fabric::NodeId(1),
                ctx.now() + SimDuration::from_micros(5),
                SimDuration::from_millis(100),
                SimDuration::from_micros(200),
                0.0,
            ));
            let buf = pa.malloc(MSG_LEN as u64);
            let mh = pa
                .register_mem(ctx, buf, MSG_LEN as u64, MemAttributes::default())
                .unwrap();
            for i in 0..N {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, MSG_LEN))
                    .unwrap();
                let c = vi.send_wait(ctx, WaitMode::Block);
                assert!(c.is_ok(), "send {i}: {:?}", c.status);
            }
        })
    };
    sim.run_to_completion();
    sh.expect_result();
    ch.expect_result();

    let (cs, ss) = (pa.stats(), pb.stats());
    assert_eq!(ss.msgs_delivered, N, "dups must never reach a descriptor");
    assert_eq!(cs.conn_failures, 0);
    assert!(cs.retransmissions > 0, "RTO below RTT must fire spuriously");
    // Loss-free wire: every spurious copy arrives and is discarded, every
    // ACK (first and re-ACK alike) makes it back.
    assert_eq!(ss.duplicates_dropped, cs.retransmissions);
    assert_eq!(ss.acks_sent, ss.msgs_delivered + ss.duplicates_dropped);
    assert_eq!(cs.acks_received, ss.acks_sent);
    assert!(
        cs.acks_received > N,
        "duplicate ACKs absorbed on done sends"
    );
}

#[test]
fn last_descriptor_is_reserved_for_the_in_order_message() {
    // The receiver has one posted descriptor, and a one-frame link flap
    // drops message 0 so message 1 arrives first. Parking message 1 in
    // that descriptor would leave message 0's retransmissions nowhere to
    // land while the receiver waits for it: the reserve discards message
    // 1 un-ACKed instead, message 0 lands on its retransmission, and the
    // sender's retry of message 1 finds the reposted descriptor.
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 3);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let san = cluster.san().clone();
    let attrs = ViAttributes::reliable(via::Reliability::ReliableDelivery);
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(MSG_LEN as u64);
            let mh = pb
                .register_mem(ctx, buf, MSG_LEN as u64, MemAttributes::default())
                .unwrap();
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, MSG_LEN))
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            let mut first = Vec::new();
            for i in 0..2 {
                let c = vi.recv_wait(ctx, WaitMode::Block);
                assert!(c.is_ok(), "recv {i}: {:?}", c.status);
                first.push(pb.mem_read(buf, 1)[0]);
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, MSG_LEN))
                    .unwrap();
            }
            first
        })
    };
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pa.malloc(2 * MSG_LEN as u64);
            let mh = pa
                .register_mem(ctx, buf, 2 * MSG_LEN as u64, MemAttributes::default())
                .unwrap();
            pa.mem_write(buf, &[0xA0]);
            pa.mem_write(buf + MSG_LEN as u64, &[0xA1]);
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            // The flap covers message 0's wire handoff and ends well before
            // message 1 is posted; the retransmit timeout is far longer.
            san.install_faults(&fabric::FaultPlan::new().link_flap(
                fabric::NodeId(0),
                ctx.now(),
                SimDuration::from_micros(20),
            ));
            for i in 0..2 {
                vi.post_send(
                    ctx,
                    Descriptor::send().segment(buf + i * MSG_LEN as u64, mh, MSG_LEN),
                )
                .unwrap();
                ctx.sleep(SimDuration::from_micros(40));
            }
            for i in 0..2 {
                let c = vi.send_wait(ctx, WaitMode::Block);
                assert!(c.is_ok(), "send {i}: {:?}", c.status);
            }
        })
    };
    sim.run_to_completion();
    assert_eq!(
        sh.expect_result(),
        vec![0xA0, 0xA1],
        "the gap message lands first, then the one that overtook it"
    );
    ch.expect_result();

    let (cs, ss) = (pa.stats(), pb.stats());
    assert_eq!(
        ss.recv_descriptor_reserved, 1,
        "message 1 must be refused the last descriptor"
    );
    assert_eq!(ss.msgs_delivered, 2);
    assert_eq!(ss.recv_no_descriptor, 0);
    assert_eq!(cs.conn_failures, 0);
    assert!(cs.retransmissions >= 2, "both messages are retried");
    let audit = cluster.audit();
    assert!(audit.is_clean(), "audit violations: {:?}", audit.violations);
}
