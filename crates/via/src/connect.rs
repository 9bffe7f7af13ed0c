//! The connection manager: VIA dialogs (`VipConnectRequest` /
//! `VipConnectWait` + `Accept` / `VipDisconnect`) over the fabric.
//!
//! The handshake is one control round trip (request → accept/reject) plus
//! client- and server-side processing constants — which is where the
//! enormous spread of Table 1's connection costs (6465 µs on M-VIA vs.
//! 496 µs on BVIA) lives: the wire part is tens of microseconds; the rest
//! is provider bookkeeping.

use fabric::NodeId;
use simkit::{EventClass, ProcessCtx, Sim, SimDuration};

use crate::profile::HeartbeatParams;
use crate::provider::{Listener, PendingConnReq, Provider};
use crate::types::{Discriminator, QueueKind, ViId, ViaError, ViaResult};
use crate::vi::{ConnState, ErrorCause};
use crate::wire::{ConnFrame, Frame, CONN_FRAME_BYTES};

/// Client-side connect (blocking).
pub(crate) fn connect(
    provider: &Provider,
    ctx: &mut ProcessCtx,
    vi_id: ViId,
    remote: NodeId,
    disc: Discriminator,
    timeout: Option<SimDuration>,
) -> ViaResult<()> {
    if remote == provider.core.node {
        return Err(ViaError::InvalidParameter);
    }
    let (reliability, mts) = {
        let st = provider.lock();
        let vi = st.vi(vi_id);
        if vi.conn != ConnState::Idle {
            return Err(ViaError::InvalidState);
        }
        (
            vi.attrs.reliability,
            vi.attrs
                .max_transfer_size
                .min(provider.core.profile.max_transfer_size),
        )
    };
    // Client-side connection-manager processing.
    ctx.busy(provider.core.profile.setup.connect_client);
    let token = {
        let mut st = provider.lock();
        let vi = st.vi_mut(vi_id);
        vi.conn = ConnState::Connecting;
        vi.connect_result = None;
        let token = ctx.prepare_wait();
        vi.connect_waiter = Some(token);
        token
    };
    // Name both directions of the flow in the fabric's writer registry
    // *before* the first frame can be on the wire: the fused fast path's
    // forward-fold relies on the registry over-approximating every
    // possible writer of each downlink (a rejected or timed-out connect
    // leaves a stale entry, which can only demote a downlink to
    // "many writers" — de-fusing, never corrupting).
    provider.san.register_flow(provider.core.node, remote);
    provider.san.register_flow(remote, provider.core.node);
    provider.san.send_control(
        provider.core.node,
        remote,
        CONN_FRAME_BYTES,
        Box::new(Frame::Conn(ConnFrame::Request {
            disc,
            client_node: provider.core.node,
            client_vi: vi_id,
            reliability,
            max_transfer_size: mts,
        })),
    );
    if let Some(t) = timeout {
        provider.core.sim.wake_in(t, token);
    }
    ctx.wait(token);
    let mut st = provider.lock();
    let vi = st.vi_mut(vi_id);
    vi.connect_waiter = None;
    match vi.connect_result.take() {
        Some(Ok(())) => Ok(()),
        Some(Err(e)) => {
            vi.conn = ConnState::Idle;
            Err(e)
        }
        None => {
            // Timed out while still connecting.
            vi.conn = ConnState::Idle;
            Err(ViaError::ConnectFailed)
        }
    }
}

/// Server-side accept (blocking; gives up at `timeout` when one is set).
pub(crate) fn accept(
    provider: &Provider,
    ctx: &mut ProcessCtx,
    vi_id: ViId,
    disc: Discriminator,
    timeout: Option<SimDuration>,
) -> ViaResult<NodeId> {
    let deadline = timeout.map(|t| provider.core.sim.now() + t);
    // Take a parked request, or register as the listener and wait.
    let req: PendingConnReq = loop {
        let token = {
            let mut st = provider.lock();
            if st.vi(vi_id).conn != ConnState::Idle {
                return Err(ViaError::InvalidState);
            }
            if let Some(q) = st.pending_conn.get_mut(&disc) {
                if let Some(req) = q.pop_front() {
                    break req;
                }
            }
            if st.listeners.contains_key(&disc) {
                return Err(ViaError::Busy); // someone already listens here
            }
            let token = ctx.prepare_wait();
            st.listeners.insert(disc, Listener { token, slot: None });
            token
        };
        if let Some(d) = deadline {
            provider
                .core
                .sim
                .wake_in(d.saturating_duration_since(provider.core.sim.now()), token);
        }
        ctx.wait(token);
        let mut st = provider.lock();
        if let Some(listener) = st.listeners.remove(&disc) {
            if let Some(req) = listener.slot {
                break req;
            }
        }
        if deadline.is_some_and(|d| provider.core.sim.now() >= d) {
            return Err(ViaError::ConnectFailed); // timed out; listener removed above
        }
        // Spurious resume; loop and re-register.
    };

    // Server-side connection-manager processing.
    ctx.busy(provider.core.profile.setup.connect_server);

    let our = {
        let st = provider.lock();
        let vi = st.vi(vi_id);
        (
            vi.attrs.reliability,
            vi.attrs
                .max_transfer_size
                .min(provider.core.profile.max_transfer_size),
        )
    };
    // Idempotent re-registration from the server side (the client already
    // registered both directions before its request; a server that sends
    // any frame — Accept or Reject — is a writer of the client's downlink).
    provider
        .san
        .register_flow(provider.core.node, req.client_node);
    provider
        .san
        .register_flow(req.client_node, provider.core.node);
    if our.0 != req.reliability {
        provider.san.send_control(
            provider.core.node,
            req.client_node,
            CONN_FRAME_BYTES,
            Box::new(Frame::Conn(ConnFrame::Reject {
                client_vi: req.client_vi,
            })),
        );
        return Err(ViaError::ConnectFailed);
    }
    let mtu = our.1.min(req.max_transfer_size);
    {
        let mut st = provider.lock();
        let vi = st.vi_mut(vi_id);
        vi.conn = ConnState::Connected {
            peer_node: req.client_node,
            peer_vi: req.client_vi,
            mtu,
        };
        vi.credit_reset();
    }
    arm_heartbeat(provider, vi_id);
    provider.san.send_control(
        provider.core.node,
        req.client_node,
        CONN_FRAME_BYTES,
        Box::new(Frame::Conn(ConnFrame::Accept {
            client_vi: req.client_vi,
            server_node: provider.core.node,
            server_vi: vi_id,
            max_transfer_size: our.1,
        })),
    );
    Ok(req.client_node)
}

/// Initiator-side disconnect. Also the only exit from the VI error state:
/// disconnecting an errored VI returns it to Idle (no peer notification —
/// the transport already gave the connection up for dead), after which the
/// application may reconnect and resume.
pub(crate) fn disconnect(provider: &Provider, ctx: &mut ProcessCtx, vi_id: ViId) -> ViaResult<()> {
    let peer = {
        let st = provider.lock();
        match st.vi(vi_id).conn {
            ConnState::Connected {
                peer_node, peer_vi, ..
            } => Some((peer_node, peer_vi)),
            ConnState::Error { .. } => None,
            _ => return Err(ViaError::InvalidState),
        }
    };
    ctx.busy(provider.core.profile.setup.teardown);
    teardown_local(provider, vi_id);
    if let Some(peer) = peer {
        provider.san.send_control(
            provider.core.node,
            peer.0,
            CONN_FRAME_BYTES,
            Box::new(Frame::Conn(ConnFrame::Disconnect { dst_vi: peer.1 })),
        );
    }
    Ok(())
}

/// Drop connection state on a VI through the shared reset
/// ([`ViState::reset_connection`](crate::vi::ViState::reset_connection)):
/// outstanding sends complete with `ConnectionLost`; posted receives stay
/// posted (reusable after reconnection, as the spec allows).
///
/// Idempotent, including on a VI that already transitioned to
/// `ConnState::Error` (whose descriptors were flushed by the error
/// transition): the reset finds nothing left to cancel or flush, so a
/// crash window closing mid-teardown cannot double-count timers or
/// completions (pinned by `teardown_during_node_down_is_idempotent` in
/// `tests/crash.rs`).
pub(crate) fn teardown_local(provider: &Provider, vi_id: ViId) {
    {
        let mut st = provider.lock();
        let Some(vi) = st.try_vi_mut(vi_id) else {
            return;
        };
        let reset = vi.reset_connection(ConnState::Idle);
        // Sequence numbers are per-connection: a VI that reconnects must
        // restart at 0 to line up with its new peer's fresh in-order state.
        vi.next_seq = 0;
        st.stats.count_reset(&reset);
        for c in reset.lost {
            crate::transport::deliver_completion(provider, &mut st, vi_id, QueueKind::Send, c);
        }
    }
    // A process blocked in a queue wait gets no completion from a clean
    // teardown (posted receives stay posted), so poke it awake: plain
    // waits re-park harmlessly, connection-aware waits notice Idle.
    crate::transport::wake_stranded_waiters(provider, vi_id);
}

/// Arm the keepalive on a just-connected VI. A no-op when the profile
/// leaves `heartbeat` at `None` — no timer is created, no state touched —
/// so heartbeat-free runs are event-for-event identical to builds without
/// the feature. Called at every `Connected` transition (both the accept
/// side and the client's accept-frame handler).
pub(crate) fn arm_heartbeat(provider: &Provider, vi_id: ViId) {
    let Some(hb) = provider.core.profile.heartbeat else {
        return;
    };
    let now = provider.core.sim.now();
    {
        let mut st = provider.lock();
        let Some(vi) = st.try_vi_mut(vi_id) else {
            return;
        };
        if !matches!(vi.conn, ConnState::Connected { .. }) {
            return;
        }
        // The peer is presumed live at connect time: the handshake frame
        // that drove this transition is itself the first liveness signal.
        vi.last_heard = now;
        if vi.disarm_heartbeat() {
            // Re-connect over a still-armed timer (shouldn't happen — every
            // teardown disarms — but harmless and counted if it does).
            st.stats.heartbeat_timers_cancelled += 1;
        }
    }
    schedule_beat(provider, vi_id, hb);
}

/// Schedule the next keepalive tick one interval out.
fn schedule_beat(provider: &Provider, vi_id: ViId, hb: HeartbeatParams) {
    let p = provider.clone();
    let at = provider.core.sim.now() + hb.interval;
    let handle = provider
        .core
        .sim
        .timer_at(EventClass::Retransmit, at, move |_| {
            heartbeat_tick(&p, vi_id, hb);
        });
    crate::transport::keep_timer(
        provider,
        handle,
        |st| Some(&mut st.try_vi_mut(vi_id)?.heartbeat_timer),
        |stats| &mut stats.heartbeat_timers_armed,
    );
}

/// One keepalive tick: declare the peer dead if its heartbeats stopped,
/// otherwise emit our own beat and re-arm. The staleness check runs
/// *before* the send, so a dead peer is detected within
/// `timeout + interval` of its last frame regardless of traffic.
fn heartbeat_tick(provider: &Provider, vi_id: ViId, hb: HeartbeatParams) {
    let now = provider.core.sim.now();
    enum Verdict {
        Dead,
        Beat(NodeId, ViId),
        Stop,
    }
    let verdict = {
        let mut st = provider.lock();
        let Some(vi) = st.try_vi_mut(vi_id) else {
            return;
        };
        vi.heartbeat_timer = None; // this firing consumed it
        match vi.peer() {
            // Torn down since arming (the disarm lost the race with this
            // firing): stop quietly, nothing to watch any more.
            None => Verdict::Stop,
            Some((peer_node, peer_vi)) => {
                if now.saturating_duration_since(vi.last_heard) > hb.timeout {
                    st.stats.heartbeat_timeouts += 1;
                    Verdict::Dead
                } else {
                    st.stats.heartbeats_sent += 1;
                    Verdict::Beat(peer_node, peer_vi)
                }
            }
        }
    };
    match verdict {
        Verdict::Stop => {}
        Verdict::Dead => {
            crate::transport::fail_connection(provider, vi_id, ErrorCause::PeerDown);
        }
        Verdict::Beat(peer_node, peer_vi) => {
            provider.san.send_control(
                provider.core.node,
                peer_node,
                CONN_FRAME_BYTES,
                Box::new(Frame::Conn(ConnFrame::Heartbeat { dst_vi: peer_vi })),
            );
            schedule_beat(provider, vi_id, hb);
        }
    }
}

/// Handle an inbound connection-manager frame (runs on the scheduler).
pub(crate) fn handle_conn_frame(provider: &Provider, sim: &Sim, frame: ConnFrame) {
    match frame {
        ConnFrame::Request {
            disc,
            client_node,
            client_vi,
            reliability,
            max_transfer_size,
        } => {
            let req = PendingConnReq {
                client_node,
                client_vi,
                reliability,
                max_transfer_size,
            };
            let mut st = provider.lock();
            if let Some(listener) = st.listeners.get_mut(&disc) {
                if listener.slot.is_none() {
                    listener.slot = Some(req);
                    let token = listener.token;
                    drop(st);
                    sim.wake(token);
                    return;
                }
            }
            st.pending_conn.entry(disc).or_default().push_back(req);
        }
        ConnFrame::Accept {
            client_vi,
            server_node,
            server_vi,
            max_transfer_size,
        } => {
            let waiter = {
                let mut st = provider.lock();
                let profile_mts = provider.core.profile.max_transfer_size;
                match st.try_vi_mut(client_vi) {
                    Some(vi) if vi.conn == ConnState::Connecting => {
                        let mtu = vi
                            .attrs
                            .max_transfer_size
                            .min(profile_mts)
                            .min(max_transfer_size);
                        vi.conn = ConnState::Connected {
                            peer_node: server_node,
                            peer_vi: server_vi,
                            mtu,
                        };
                        vi.credit_reset();
                        Some(vi.resolve_connect(Ok(())))
                    }
                    // Late accept after timeout: ignore (the server believes
                    // it is connected; a real stack would RST — first traffic
                    // will be dropped by our state checks, which is
                    // equivalent here).
                    _ => None,
                }
            };
            if let Some(waiter) = waiter {
                arm_heartbeat(provider, client_vi);
                if let Some(token) = waiter {
                    sim.wake(token);
                }
            }
        }
        ConnFrame::Reject { client_vi } => {
            let mut st = provider.lock();
            if let Some(vi) = st.try_vi_mut(client_vi) {
                if vi.conn == ConnState::Connecting {
                    if let Some(token) = vi.resolve_connect(Err(ViaError::ConnectFailed)) {
                        drop(st);
                        sim.wake(token);
                    }
                }
            }
        }
        ConnFrame::Disconnect { dst_vi } => {
            teardown_local(provider, dst_vi);
        }
        ConnFrame::Heartbeat { dst_vi } => {
            // Refresh the liveness clock; the peer's watchdog does the rest.
            let mut st = provider.lock();
            if let Some(vi) = st.try_vi_mut(dst_vi) {
                if matches!(vi.conn, ConnState::Connected { .. }) {
                    vi.last_heard = sim.now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::provider::Cluster;
    use crate::types::ViAttributes;
    use simkit::Sim;

    #[test]
    fn requests_park_until_a_listener_arrives() {
        // The client connects before any accept is registered: the request
        // must wait in pending_conn and complete once the server listens.
        let sim = Sim::new();
        let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 0);
        let (pa, pb) = (cluster.provider(0), cluster.provider(1));
        let ch = {
            let pa = pa.clone();
            sim.spawn("client", Some(pa.cpu()), move |ctx| {
                let vi = pa
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(3), None)
            })
        };
        {
            let pb = pb.clone();
            sim.spawn("late-server", Some(pb.cpu()), move |ctx| {
                ctx.sleep(simkit::SimDuration::from_millis(10));
                let vi = pb
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                pb.accept(ctx, &vi, Discriminator(3)).unwrap();
            });
        }
        sim.run_to_completion();
        assert!(ch.expect_result().is_ok());
    }

    #[test]
    fn disconnect_of_unconnected_vi_is_invalid_state() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 0);
        let pa = cluster.provider(0);
        sim.spawn("t", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            assert_eq!(pa.disconnect(ctx, &vi), Err(ViaError::InvalidState));
        });
        sim.run_to_completion();
    }

    #[test]
    fn negotiated_mtu_is_the_minimum_of_both_sides() {
        let sim = Sim::new();
        let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 0);
        let (pa, pb) = (cluster.provider(0), cluster.provider(1));
        let sh = {
            let pb = pb.clone();
            sim.spawn("server", Some(pb.cpu()), move |ctx| {
                let attrs = ViAttributes {
                    max_transfer_size: 10_000,
                    ..Default::default()
                };
                let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
                pb.accept(ctx, &vi, Discriminator(1)).unwrap();
                vi.conn_state()
            })
        };
        let ch = {
            let pa = pa.clone();
            sim.spawn("client", Some(pa.cpu()), move |ctx| {
                let attrs = ViAttributes {
                    max_transfer_size: 50_000,
                    ..Default::default()
                };
                let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
                pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                    .unwrap();
                vi.conn_state()
            })
        };
        sim.run_to_completion();
        for state in [sh.expect_result(), ch.expect_result()] {
            match state {
                ConnState::Connected { mtu, .. } => assert_eq!(mtu, 10_000),
                other => panic!("not connected: {other:?}"),
            }
        }
    }
}
