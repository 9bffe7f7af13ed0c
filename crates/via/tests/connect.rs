//! Connection-manager and API-misuse integration tests: listener
//! exclusivity, timeouts, self-connection, cross-provider handles, and
//! state checks around disconnects.

use simkit::{Sim, SimDuration, WaitMode};
use via::{
    Cluster, ConnState, Descriptor, Discriminator, MemAttributes, Profile, ViAttributes, ViaError,
};

#[test]
fn second_listener_on_same_discriminator_is_refused() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 1);
    let pb = cluster.provider(1);
    let h1 = {
        let pb = pb.clone();
        sim.spawn("listener1", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            // Registers the listener, then blocks until the client below
            // finally connects.
            pb.accept(ctx, &vi, Discriminator(7)).is_ok()
        })
    };
    {
        let pb = pb.clone();
        sim.spawn("listener2", Some(pb.cpu()), move |ctx| {
            // Let listener1 get its registration in first.
            ctx.sleep(SimDuration::from_millis(1));
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let r = pb.accept(ctx, &vi, Discriminator(7));
            assert_eq!(r, Err(ViaError::Busy), "duplicate listener must be refused");
        });
    }
    // Eventually let listener1 finish by connecting to it.
    let pa = cluster.provider(0);
    {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            ctx.sleep(SimDuration::from_millis(5));
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(7), None)
                .unwrap();
        });
    }
    sim.run_to_completion();
    assert!(h1.expect_result());
}

#[test]
fn connect_timeout_when_nobody_listens() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::mvia(), 2, 2);
    let pa = cluster.provider(0);
    let h = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let t0 = ctx.now();
            let r = pa.connect(
                ctx,
                &vi,
                fabric::NodeId(1),
                Discriminator(404),
                Some(SimDuration::from_millis(3)),
            );
            (r, (ctx.now() - t0).as_micros_f64(), vi.conn_state())
        })
    };
    sim.run_to_completion();
    let (r, waited_us, state) = h.expect_result();
    assert_eq!(r, Err(ViaError::ConnectFailed));
    // Client-side processing (3.6 ms on M-VIA) + the 3 ms timeout.
    assert!(waited_us >= 3_000.0, "waited {waited_us}");
    assert_eq!(
        state,
        ConnState::Idle,
        "VI must be reusable after a timeout"
    );
}

#[test]
fn late_accept_after_timeout_is_ignored_by_client() {
    // Server accepts *after* the client timed out: the client must stay
    // Idle (and be able to reconnect), not flip to Connected out of wait.
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 3);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    {
        let pb = pb.clone();
        sim.spawn("slow-server", Some(pb.cpu()), move |ctx| {
            // Busy elsewhere: starts listening long after the client quit.
            ctx.sleep(SimDuration::from_millis(20));
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            // The parked request is still in the pending queue; accept
            // completes on the server side (it cannot know the client
            // gave up — its Accept frame is simply ignored over there).
            pb.accept(ctx, &vi, Discriminator(9)).unwrap();
            ctx.sleep(SimDuration::from_millis(5));
        });
    }
    let h = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let r = pa.connect(
                ctx,
                &vi,
                fabric::NodeId(1),
                Discriminator(9),
                Some(SimDuration::from_millis(2)),
            );
            assert_eq!(r, Err(ViaError::ConnectFailed));
            // Sleep past the server's late Accept; state must stay Idle.
            ctx.sleep(SimDuration::from_millis(40));
            vi.conn_state()
        })
    };
    sim.run_to_completion();
    assert_eq!(h.expect_result(), ConnState::Idle);
}

#[test]
fn connect_to_self_is_rejected() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 4);
    let pa = cluster.provider(0);
    sim.spawn("p", Some(pa.cpu()), move |ctx| {
        let vi = pa
            .create_vi(ctx, ViAttributes::default(), None, None)
            .unwrap();
        let r = pa.connect(ctx, &vi, fabric::NodeId(0), Discriminator(1), None);
        assert_eq!(r, Err(ViaError::InvalidParameter));
    });
    sim.run_to_completion();
}

#[test]
fn foreign_cq_handle_is_rejected() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 5);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    sim.spawn("p", Some(pa.cpu()), move |ctx| {
        let foreign_cq = pb.create_cq(ctx, 8).unwrap();
        let r = pa.create_vi(ctx, ViAttributes::default(), Some(&foreign_cq), None);
        assert!(matches!(r, Err(ViaError::InvalidParameter)));
    });
    sim.run_to_completion();
}

#[test]
fn connect_while_connected_is_invalid() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 3, 6);
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
            // A VI holds exactly one connection.
            let r = pa.connect(ctx, &vi, fabric::NodeId(2), Discriminator(2), None);
            assert_eq!(r, Err(ViaError::InvalidState));
        });
    }
    sim.run_to_completion();
}

#[test]
fn peer_disconnect_fails_outstanding_sends() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 7);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let attrs = ViAttributes::reliable(via::Reliability::ReliableDelivery);
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            // Disconnect without ever posting a receive: the client's
            // reliable send can then never be acknowledged.
            ctx.sleep(SimDuration::from_micros(200));
            pb.disconnect(ctx, &vi).unwrap();
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
            comp.status
        })
    };
    sim.run_to_completion();
    sh.expect_result();
    assert_eq!(ch.expect_result(), Err(ViaError::ConnectionLost));
}

#[test]
fn post_recv_before_connection_is_allowed() {
    // The spec encourages pre-posting receives before the connection is up.
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::bvia(), 2, 8);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pb.malloc(256);
            let mh = pb
                .register_mem(ctx, buf, 256, MemAttributes::default())
                .unwrap();
            // Post BEFORE accept: must succeed and catch the first message.
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 256))
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            comp.is_ok()
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
            let buf = pa.malloc(256);
            let mh = pa
                .register_mem(ctx, buf, 256, MemAttributes::default())
                .unwrap();
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 128))
                .unwrap();
            vi.send_wait(ctx, WaitMode::Poll);
        });
    }
    sim.run_to_completion();
    assert!(sh.expect_result());
}

#[test]
fn retry_exhaustion_drives_vi_to_error_then_reconnect_recovers() {
    // A link flap longer than the whole retry budget must push the VI into
    // the Error state: the stuck send completes with ConnectionLost, new
    // posts are refused, and only an explicit disconnect returns the VI to
    // Idle — after which a fresh connect on the same VI works, including
    // the per-connection sequence restart.
    let sim = Sim::new();
    let mut p = Profile::clan();
    p.data.retransmit_timeout = SimDuration::from_micros(200);
    p.data.max_rto = SimDuration::from_millis(1);
    p.data.max_retries = 2;
    let cluster = Cluster::new(sim.clone(), p, 2, 11);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let san = cluster.san().clone();
    let attrs = ViAttributes::reliable(via::Reliability::ReliableDelivery);
    let flap = SimDuration::from_millis(10);
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(4096);
            let mh = pb
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 1024))
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            assert!(vi.recv_wait(ctx, WaitMode::Block).is_ok());
            // Listen again for the client's post-error reconnect on a
            // fresh VI (the dead one keeps its half-open server state).
            let vi2 = pb.create_vi(ctx, attrs, None, None).unwrap();
            vi2.post_recv(ctx, Descriptor::recv().segment(buf + 1024, mh, 1024))
                .unwrap();
            pb.accept(ctx, &vi2, Discriminator(2)).unwrap();
            vi2.recv_wait(ctx, WaitMode::Block).is_ok()
        })
    };
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let buf = pa.malloc(4096);
            let mh = pa
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            // One clean round proves the path before the fault.
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 1024))
                .unwrap();
            assert!(vi.send_wait(ctx, WaitMode::Block).is_ok());

            let flap_at = ctx.now() + SimDuration::from_micros(10);
            san.install_faults(&fabric::FaultPlan::new().link_flap(
                fabric::NodeId(0),
                flap_at,
                flap,
            ));
            let flap_end = flap_at + flap;
            ctx.sleep(SimDuration::from_micros(20));
            // This send's every (re)transmission dies on the downed link.
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 1024))
                .unwrap();
            let comp = vi.send_wait(ctx, WaitMode::Block);
            assert_eq!(comp.status, Err(ViaError::ConnectionLost));
            assert_eq!(
                vi.conn_state(),
                ConnState::Error {
                    cause: via::ErrorCause::RetryExhausted
                }
            );
            // An errored VI refuses all work until the owner clears it, and
            // a refusal costs nothing: no virtual time, no posted count. (A
            // sender may therefore keep posting until refused instead of
            // stopping at the first error completion — same timeline.)
            let (t, before) = (ctx.now(), pa.stats());
            let d = Descriptor::send().segment(buf, mh, 64);
            assert_eq!(vi.post_send(ctx, d), Err(ViaError::InvalidState));
            let d = Descriptor::recv().segment(buf, mh, 64);
            assert_eq!(vi.post_recv(ctx, d), Err(ViaError::InvalidState));
            let after = pa.stats();
            assert_eq!(ctx.now(), t, "a refused post must not take time");
            assert_eq!(
                (after.sends_posted, after.recvs_posted),
                (before.sends_posted, before.recvs_posted),
                "a refused post must not count as posted"
            );
            pa.disconnect(ctx, &vi).unwrap();
            assert_eq!(vi.conn_state(), ConnState::Idle);

            // Outlive the flap, then the same VI must connect cleanly.
            while ctx.now() < flap_end + SimDuration::from_millis(1) {
                ctx.sleep(SimDuration::from_millis(1));
            }
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(2), None)
                .unwrap();
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 1024))
                .unwrap();
            assert!(vi.send_wait(ctx, WaitMode::Block).is_ok());
            pa.stats().conn_failures
        })
    };
    sim.run_to_completion();
    assert!(
        sh.expect_result(),
        "server must see the post-reconnect send"
    );
    assert_eq!(
        ch.expect_result(),
        1,
        "exactly one declared connection death"
    );
}

#[test]
fn multifragment_immediate_is_delivered_exactly_once() {
    // Immediate data rides the control segment; a 7-fragment message must
    // still deliver it once, with the completion.
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::bvia(), 2, 9); // 4 KiB MTU
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pb.malloc(28672);
            let mh = pb
                .register_mem(ctx, buf, 28672, MemAttributes::default())
                .unwrap();
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 28672))
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok());
            (comp.length, comp.immediate)
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
            ctx.sleep(SimDuration::from_micros(300));
            let buf = pa.malloc(28672);
            let mh = pa
                .register_mem(ctx, buf, 28672, MemAttributes::default())
                .unwrap();
            vi.post_send(
                ctx,
                Descriptor::send().segment(buf, mh, 28672).immediate(0xFEED),
            )
            .unwrap();
            vi.send_wait(ctx, WaitMode::Poll);
        });
    }
    sim.run_to_completion();
    let (len, imm) = sh.expect_result();
    assert_eq!(len, 28672);
    assert_eq!(imm, Some(0xFEED));
}

#[test]
fn a_clean_disconnect_and_retry_exhaustion_share_one_reset() {
    // One reliable cLAN pair leaves `Connected` twice, each time with sends
    // in flight and receives posted: first by a clean disconnect, then, on
    // the same VI reconnected, by retry exhaustion under a link flap. Both
    // exits flush the sends and cancel their retransmit timers and the
    // keepalive; only the clean one keeps the receives posted and restarts
    // the sequence, only the failure flushes them and counts itself.
    const SENDS: u64 = 3;
    let sim = Sim::new();
    let mut p = Profile::clan();
    p.data.max_rto = SimDuration::from_millis(2);
    p.data.max_retries = 1;
    p.heartbeat = Some(via::HeartbeatParams {
        interval: SimDuration::from_millis(1),
        timeout: SimDuration::from_millis(10),
    });
    let cluster = Cluster::new(sim.clone(), p, 2, 5);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let san = cluster.san().clone();
    let attrs = ViAttributes::reliable(via::Reliability::ReliableDelivery);
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            // No receive posted: the first connection's sends are dropped
            // un-ACKed and stay in flight.
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            // One receive for the reconnected VI's first message. Were the
            // sequence not restarted, it would arrive out of order and be
            // refused the last descriptor until the sender gave up.
            let vi2 = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(256);
            let mh = pb
                .register_mem(ctx, buf, 256, MemAttributes::default())
                .unwrap();
            vi2.post_recv(ctx, Descriptor::recv().segment(buf, mh, 256))
                .unwrap();
            pb.accept(ctx, &vi2, Discriminator(2)).unwrap();
            vi2.recv_wait(ctx, WaitMode::Block).status
        })
    };
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pa.malloc(4096);
            let mh = pa
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            for i in 0..2 {
                let d = Descriptor::recv().segment(buf + 2048 + i * 256, mh, 256);
                vi.post_recv(ctx, d).unwrap();
            }
            let post_sends = |ctx: &mut simkit::ProcessCtx| {
                for _ in 0..SENDS {
                    vi.post_send(ctx, Descriptor::send().segment(buf, mh, 256))
                        .unwrap();
                }
                // Every send on the wire, its timer armed, none yet fired.
                ctx.sleep(SimDuration::from_micros(100));
            };
            // Every completion waiting on a queue, by status.
            let sends = |ctx: &mut simkit::ProcessCtx| {
                std::iter::from_fn(|| vi.send_done(ctx).map(|c| c.status)).collect::<Vec<_>>()
            };
            let recvs = |ctx: &mut simkit::ProcessCtx| {
                std::iter::from_fn(|| vi.recv_done(ctx).map(|c| c.status)).collect::<Vec<_>>()
            };
            let lost = |n: u64| vec![Err(ViaError::ConnectionLost); n as usize];

            // Exit 1: a clean disconnect.
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            post_sends(ctx);
            let before = pa.stats();
            pa.disconnect(ctx, &vi).unwrap();
            let after = pa.stats();
            assert_eq!(vi.conn_state(), ConnState::Idle);
            assert_eq!(sends(ctx), lost(SENDS));
            assert_eq!(recvs(ctx), lost(0), "the receives stay posted");
            assert_eq!(
                after.retx_timers_cancelled - before.retx_timers_cancelled,
                SENDS
            );
            assert_eq!(
                after.heartbeat_timers_cancelled - before.heartbeat_timers_cancelled,
                1
            );
            assert_eq!(after.conn_failures, 0);

            // Reconnected, the sequence starts over at 0.
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(2), None)
                .unwrap();
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 256))
                .unwrap();
            assert!(vi.send_wait(ctx, WaitMode::Block).is_ok());

            // Exit 2: retry exhaustion while the link is down.
            san.install_faults(&fabric::FaultPlan::new().link_flap(
                fabric::NodeId(0),
                ctx.now(),
                SimDuration::from_millis(20),
            ));
            post_sends(ctx);
            let before = pa.stats();
            let first = vi.send_wait(ctx, WaitMode::Block);
            assert_eq!(first.status, Err(ViaError::ConnectionLost));
            let after = pa.stats();
            assert_eq!(
                vi.conn_state(),
                ConnState::Error {
                    cause: via::ErrorCause::RetryExhausted
                }
            );
            assert_eq!(sends(ctx), lost(SENDS - 1));
            assert_eq!(recvs(ctx), lost(2), "the receives are flushed too");
            // The firing that gave up consumed its own timer; the reset
            // cancelled the other sends'.
            assert_eq!(
                after.retx_timers_cancelled - before.retx_timers_cancelled,
                SENDS - 1
            );
            assert_eq!(
                after.heartbeat_timers_cancelled - before.heartbeat_timers_cancelled,
                1
            );
            assert_eq!(after.conn_failures, 1);
            // Clearing the error resets nothing further.
            pa.disconnect(ctx, &vi).unwrap();
            let cleared = pa.stats();
            assert_eq!(cleared.retx_timers_cancelled, after.retx_timers_cancelled);
            assert_eq!(
                cleared.heartbeat_timers_cancelled,
                after.heartbeat_timers_cancelled
            );
            assert_eq!((sends(ctx), recvs(ctx)), (lost(0), lost(0)));
        })
    };
    sim.run_to_completion();
    ch.expect_result();
    assert_eq!(sh.expect_result(), Ok(()));
    // Every retransmit timer armed was cancelled or fired: a resend, or the
    // one firing that gave the connection up.
    let s = pa.stats();
    assert_eq!(
        s.retx_timers_armed,
        s.retx_timers_cancelled + s.retransmissions + s.conn_failures
    );
    let audit = cluster.audit();
    assert!(audit.is_clean(), "audit violations: {:?}", audit.violations);
}
