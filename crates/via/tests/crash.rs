//! Node-scoped fault-domain tests: provider wipe-and-reboot semantics,
//! heartbeat crash detection, and the teardown-during-crash-window
//! idempotence pin (see `connect::teardown_local`).

use simkit::{Sim, SimDuration, SimTime, WaitMode};
use via::{
    Cluster, ConnState, Descriptor, Discriminator, ErrorCause, MemAttributes, Profile, Reliability,
    ViAttributes, ViaError,
};

fn crash_profile() -> Profile {
    let mut p = Profile::clan();
    p.heartbeat = Some(via::HeartbeatParams::fast());
    p
}

/// Satellite pin: `teardown_local` on a VI already in `ConnState::Error`
/// during an *open* node_down window is idempotent and leak-free — the
/// error transition flushed every descriptor exactly once, the teardown
/// flushes nothing further, timers are disarmed exactly once, and a
/// second teardown attempt is a clean `InvalidState`, all audit-checked.
#[test]
fn teardown_during_node_down_is_idempotent() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), crash_profile(), 2, 21);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    // Crash the *client's* node: its provider is wiped mid-window and the
    // application (which survives — the sim models state loss, not
    // process death) tears the errored VI down while the window is open.
    cluster
        .san()
        .install_faults(&fabric::FaultPlan::new().node_down(
            fabric::NodeId(0),
            SimTime::from_nanos(5_000_000),
            SimDuration::from_millis(1),
        ));
    {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            // Reliable delivery with no receives posted: inbound frames
            // drop descriptor-less and the client's sends stay in flight
            // on retransmission — in-flight state for the crash to flush.
            let vi = pb
                .create_vi(
                    ctx,
                    ViAttributes::reliable(Reliability::ReliableDelivery),
                    None,
                    None,
                )
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(3)).unwrap();
            // Sit out the crash; the heartbeat watchdog notices the dead
            // peer and fails the connection on this side too.
            ctx.sleep(SimDuration::from_millis(8));
            assert!(
                matches!(
                    vi.conn_state(),
                    ConnState::Error {
                        cause: ErrorCause::PeerDown
                    }
                ),
                "watchdog must flag the crashed peer: {:?}",
                vi.conn_state()
            );
            pb.disconnect(ctx, &vi).unwrap();
        });
    }
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(
                    ctx,
                    ViAttributes::reliable(Reliability::ReliableDelivery),
                    None,
                    None,
                )
                .unwrap();
            let buf = pa.malloc(4096);
            let mh = pa
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(3), None)
                .unwrap();
            // Park four sends in flight just before the window opens (the
            // server posted no receives, so they sit on retransmission).
            ctx.sleep(SimTime::from_nanos(4_900_000).saturating_duration_since(ctx.now()));
            for _ in 0..4 {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 256))
                    .unwrap();
            }
            // Wake inside the open window, after the wipe.
            ctx.sleep(SimDuration::from_micros(300));
            assert!(
                matches!(
                    vi.conn_state(),
                    ConnState::Error {
                        cause: ErrorCause::NodeDown
                    }
                ),
                "crash must fail the connection: {:?}",
                vi.conn_state()
            );
            // The error transition flushed all four sends, exactly once.
            let mut errs = 0;
            while let Some(c) = vi.send_done(ctx) {
                assert_eq!(c.status, Err(ViaError::ConnectionLost));
                errs += 1;
            }
            assert_eq!(errs, 4, "every in-flight send flushed exactly once");
            // Teardown during the still-open window: must succeed, flush
            // nothing further, and leave the VI reusable.
            assert!(
                ctx.now() < SimTime::from_nanos(6_000_000),
                "teardown must run inside the open window"
            );
            pa.disconnect(ctx, &vi).unwrap();
            assert_eq!(vi.conn_state(), ConnState::Idle);
            assert!(vi.send_done(ctx).is_none(), "no double-flush");
            assert!(vi.recv_done(ctx).is_none(), "no phantom receives");
            // A second teardown attempt is a clean state error, not a
            // double free.
            assert_eq!(pa.disconnect(ctx, &vi), Err(ViaError::InvalidState));
            assert!(vi.send_done(ctx).is_none());
            vi.id()
        })
    };
    sim.run_to_completion();
    ch.expect_result();
    let stats = pa.stats();
    assert_eq!(stats.node_crashes, 1);
    assert!(
        stats.heartbeat_timers_cancelled <= stats.heartbeat_timers_armed,
        "timer ledger: {stats:?}"
    );
    let audit = cluster.audit();
    assert!(audit.is_clean(), "audit: {:?}", audit.violations);
}

/// A nic_reset window reports `ErrorCause::NicReset` (host survives, NIC
/// state wiped) and counts under `nic_resets`, distinct from node_down's
/// `node_crashes`.
#[test]
fn nic_reset_reports_distinct_cause() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), crash_profile(), 2, 22);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    cluster
        .san()
        .install_faults(&fabric::FaultPlan::new().nic_reset(
            fabric::NodeId(0),
            SimTime::from_nanos(5_000_000),
            SimDuration::from_micros(400),
        ));
    {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(3)).unwrap();
            ctx.sleep(SimDuration::from_millis(8));
            if matches!(vi.conn_state(), ConnState::Error { .. }) {
                pb.disconnect(ctx, &vi).unwrap();
            }
        });
    }
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(3), None)
                .unwrap();
            ctx.sleep(SimTime::from_nanos(5_200_000).saturating_duration_since(ctx.now()));
            let state = vi.conn_state();
            pa.disconnect(ctx, &vi).unwrap();
            state
        })
    };
    sim.run_to_completion();
    let state = ch.expect_result();
    assert!(
        matches!(
            state,
            ConnState::Error {
                cause: ErrorCause::NicReset
            }
        ),
        "NIC reset must carry its own cause: {state:?}"
    );
    let stats = pa.stats();
    assert_eq!(stats.nic_resets, 1);
    assert_eq!(stats.node_crashes, 0);
    let audit = cluster.audit();
    assert!(audit.is_clean(), "audit: {:?}", audit.violations);
}

/// The surviving peer detects a crashed node within the heartbeat bound:
/// staleness is checked before each beat, so detection happens no later
/// than `timeout + interval` after the last liveness signal (plus wire
/// latency slack).
#[test]
fn peer_down_detected_within_heartbeat_bound() {
    let sim = Sim::new();
    let profile = crash_profile();
    let hb = profile.heartbeat.unwrap();
    let cluster = Cluster::new(sim.clone(), profile, 2, 23);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let crash_at = SimTime::from_nanos(5_000_000);
    cluster
        .san()
        .install_faults(&fabric::FaultPlan::new().node_down(
            fabric::NodeId(1),
            crash_at,
            SimDuration::from_millis(4),
        ));
    {
        let pb = pb.clone();
        sim.spawn("victim", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(9)).unwrap();
            ctx.sleep(SimDuration::from_millis(12));
            if matches!(vi.conn_state(), ConnState::Error { .. }) {
                pb.disconnect(ctx, &vi).unwrap();
            }
        });
    }
    let ch = {
        let pa = pa.clone();
        sim.spawn("survivor", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(9), None)
                .unwrap();
            // Poll for the watchdog verdict in fine steps.
            let detected = loop {
                if matches!(
                    vi.conn_state(),
                    ConnState::Error {
                        cause: ErrorCause::PeerDown
                    }
                ) {
                    break ctx.now();
                }
                assert!(
                    ctx.now() < SimTime::from_nanos(9_000_000),
                    "watchdog never fired"
                );
                ctx.sleep(SimDuration::from_micros(20));
            };
            pa.disconnect(ctx, &vi).unwrap();
            detected
        })
    };
    sim.run_to_completion();
    let detected = ch.expect_result();
    // The victim's last heartbeat left no later than crash_at; staleness
    // trips at the first tick past last_heard + timeout, which is at most
    // timeout + interval later (plus the polling step above).
    let bound = crash_at + hb.timeout + hb.interval + SimDuration::from_micros(50);
    assert!(
        detected <= bound,
        "detection at {detected:?} exceeds bound {bound:?}"
    );
    assert!(pa.stats().heartbeat_timeouts >= 1);
    let audit = cluster.audit();
    assert!(audit.is_clean(), "audit: {:?}", audit.violations);
}

/// After the window closes the node reboots with a fresh provider: the
/// old connection is gone, but new connect/accept dialogs work and data
/// flows again.
#[test]
fn rebooted_node_accepts_fresh_connections() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), crash_profile(), 2, 24);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let window_end = SimTime::from_nanos(6_000_000);
    cluster
        .san()
        .install_faults(&fabric::FaultPlan::new().node_down(
            fabric::NodeId(1),
            SimTime::from_nanos(5_000_000),
            SimDuration::from_millis(1),
        ));
    {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(4)).unwrap();
            let buf = pb.malloc(4096);
            let mh = pb
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            // Ride out the crash; the wipe failed the first connection.
            ctx.sleep(
                window_end.saturating_duration_since(ctx.now()) + SimDuration::from_micros(100),
            );
            assert!(!pb.crashed(), "window closed, node rebooted");
            assert!(matches!(vi.conn_state(), ConnState::Error { .. }));
            pb.disconnect(ctx, &vi).unwrap();
            // Fresh dialog on the rebooted node.
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 4096))
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(5)).unwrap();
            let c = vi.recv_wait(ctx, WaitMode::Block);
            assert!(c.status.is_ok());
            let got = pb.mem_read(buf, c.length);
            pb.disconnect(ctx, &vi).unwrap();
            got
        })
    };
    let sh = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pa.malloc(4096);
            let mh = pa
                .register_mem(ctx, buf, 4096, MemAttributes::default())
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(4), None)
                .unwrap();
            // Wait past the window for the watchdog verdict, then redial.
            ctx.sleep(
                window_end.saturating_duration_since(ctx.now()) + SimDuration::from_millis(2),
            );
            assert!(matches!(vi.conn_state(), ConnState::Error { .. }));
            pa.disconnect(ctx, &vi).unwrap();
            pa.mem_write(buf, b"after reboot");
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(5), None)
                .unwrap();
            vi.post_send(
                ctx,
                Descriptor::send().segment(buf, mh, b"after reboot".len() as u32),
            )
            .unwrap();
            let c = vi.send_wait(ctx, WaitMode::Block);
            assert!(c.status.is_ok());
            pa.disconnect(ctx, &vi).unwrap();
        })
    };
    sim.run_to_completion();
    sh.expect_result();
    assert_eq!(pb.stats().node_crashes, 1);
    let audit = cluster.audit();
    assert!(audit.is_clean(), "audit: {:?}", audit.violations);
}
