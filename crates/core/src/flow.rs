//! The one flow pair the multi-node streaming workloads are built from:
//! a receiver that pre-posts its whole window before accepting, and a
//! sender that keeps a window of sends outstanding — the harness's
//! windowed sender ([`crate::harness::Stream`]) on the flow's VI, which
//! needs no `Endpoint`. The connection storm,
//! the incast, the spine kill, the pause cascade (`topo_bench`,
//! `failover_bench`) and the X-SHARD ring (`shard_bench`) are each a
//! list of [`Flow`]s over a cluster.
//!
//! Two properties of the engine make the exact shape of these bodies part
//! of every golden and digest downstream, so they are fixed here:
//!
//! * **A zero-length sleep is not no sleep.** `ctx.sleep(ZERO)` still
//!   schedules an event and yields, which reorders the process against
//!   its same-instant peers. "No stagger before connecting" (the storm's
//!   and the ring's senders) and "a 0 ns stagger" (flow 0 of the incast,
//!   spine kill and cascade) are therefore different timelines:
//!   [`Flow::connect_at`] is an `Option`, and `None` never sleeps.
//! * **Order is observable.** A workload spawns every receiver in
//!   ascending flow order, then every sender ([`run_flows`]; the ring
//!   spawns by node, which rotates its receivers against its flows); and
//!   inside a process the calls run `create_vi → malloc → register_mem →
//!   post_recv… → accept` and `create_vi → malloc → register_mem →
//!   [sleep] → connect → sleep → window`. Process names feed the engine's
//!   bookkeeping, so callers pass the name each workload has always used.

use fabric::NodeId;
use simkit::{ProcessHandle, SimDuration, SimTime, WaitMode};
use via::{registered, Cluster, Descriptor, Discriminator, Reliability, ViAttributes};

use crate::harness::Stream;
use crate::topo_bench::Rig;

/// One unidirectional stream of `msgs` messages of `size` bytes.
#[derive(Clone, Copy)]
pub(crate) struct Flow {
    /// Sending node.
    pub(crate) src: usize,
    /// Receiving node.
    pub(crate) dst: usize,
    /// Connection discriminator the receiver accepts on.
    pub(crate) disc: u64,
    /// Messages streamed (the receiver pre-posts this many receives).
    pub(crate) msgs: usize,
    /// Payload bytes per message, and the size of both registered buffers.
    pub(crate) size: u64,
    /// VI attributes of both endpoints.
    pub(crate) attrs: ViAttributes,
    /// Stagger before the sender connects. Control frames are not
    /// retransmitted, so connects must not collide hard enough to
    /// overflow a port. `None` connects without yielding; `Some(ZERO)`
    /// yields once (see the module docs).
    pub(crate) connect_at: Option<SimDuration>,
    /// Offset the sender waits out between connecting and streaming.
    pub(crate) start: SimDuration,
    /// Sends kept outstanding (at least 1). 1 is a self-paced flow; 2
    /// keeps standing pressure on a tight port (and frames in flight
    /// across a fault) while staying inside the retransmission budget.
    pub(crate) depth: usize,
}

/// Reliable Delivery VI attributes — retransmission recovers any frame a
/// full or faulted switch port drops, so a workload runs to completion
/// and the conservation oracles can demand zero stranded descriptors.
pub(crate) fn rd() -> ViAttributes {
    ViAttributes {
        reliability: Reliability::ReliableDelivery,
        ..ViAttributes::default()
    }
}

impl Flow {
    /// Flow `i` of a staggered Reliable Delivery burst (the incast
    /// senders, the spine-kill flows, the pause cascade): connects
    /// `1 069 i` ns in, streams from `30 000 + 977 i` ns after that — odd
    /// strides, so no two flows act in the same nanosecond — with a
    /// window of two.
    pub(crate) fn staggered(
        i: usize,
        (src, dst): (usize, usize),
        disc: u64,
        msgs: usize,
        size: u64,
    ) -> Flow {
        Flow {
            src,
            dst,
            disc,
            msgs,
            size,
            attrs: rd(),
            connect_at: Some(SimDuration::from_nanos(1_069 * i as u64)),
            start: SimDuration::from_nanos(30_000 + 977 * i as u64),
            depth: 2,
        }
    }
}

/// What a flow's receiver saw (all virtual-time).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RxTrace {
    /// Messages delivered.
    pub(crate) delivered: u64,
    /// Payload bytes delivered.
    pub(crate) bytes: u64,
    /// First delivery completion time.
    pub(crate) first_rx: SimTime,
    /// Last delivery completion time.
    pub(crate) last_rx: SimTime,
    /// Longest gap between consecutive deliveries.
    pub(crate) max_gap: SimDuration,
    /// Deliveries completed after the `mark` given to [`spawn_rx`].
    pub(crate) after_mark: u64,
}

/// Spawn `flow`'s receiver on its destination node: pre-post every
/// receive, accept, drain by polling. `mark` splits the deliveries for
/// [`RxTrace::after_mark`] (`SimTime::MAX` when nothing is marked).
pub(crate) fn spawn_rx(
    cluster: &Cluster,
    flow: &Flow,
    name: String,
    mark: SimTime,
) -> ProcessHandle<RxTrace> {
    let Flow {
        src,
        dst,
        disc,
        msgs,
        size,
        attrs,
        ..
    } = *flow;
    let p = cluster.provider(dst);
    let sim = cluster.sim().clone();
    sim.spawn(name, Some(p.cpu()), move |ctx| {
        let vi = p.create_vi(ctx, attrs, None, None).expect("vi");
        let (buf, mh) = registered(ctx, &p, size);
        for _ in 0..msgs {
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, size as u32))
                .expect("post_recv");
        }
        p.accept(ctx, &vi, Discriminator(disc)).expect("accept");
        let mut t = RxTrace {
            delivered: 0,
            bytes: 0,
            first_rx: SimTime::MAX,
            last_rx: SimTime::ZERO,
            max_gap: SimDuration::ZERO,
            after_mark: 0,
        };
        for _ in 0..msgs {
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            assert!(
                comp.is_ok(),
                "flow {src}->{dst}: delivery failed: {:?}",
                comp.status
            );
            let now = ctx.now();
            if t.delivered > 0 {
                t.max_gap = t.max_gap.max(now.duration_since(t.last_rx));
            }
            t.delivered += 1;
            t.bytes += comp.length;
            t.first_rx = t.first_rx.min(now);
            t.last_rx = now;
            t.after_mark += u64::from(now > mark);
        }
        t
    })
}

/// Spawn `flow`'s sender on its source node: connect (after the optional
/// stagger), wait out the start offset, then keep `depth` sends
/// outstanding until `msgs` have completed.
pub(crate) fn spawn_tx(cluster: &Cluster, flow: &Flow, name: String) -> ProcessHandle<()> {
    let Flow {
        src,
        dst,
        disc,
        msgs,
        size,
        attrs,
        connect_at,
        start,
        depth,
    } = *flow;
    let p = cluster.provider(src);
    let sim = cluster.sim().clone();
    sim.spawn(name, Some(p.cpu()), move |ctx| {
        let vi = p.create_vi(ctx, attrs, None, None).expect("vi");
        let (buf, mh) = registered(ctx, &p, size);
        if let Some(stagger) = connect_at {
            ctx.sleep(stagger);
        }
        p.connect(ctx, &vi, NodeId(dst as u32), Discriminator(disc), None)
            .expect("connect");
        ctx.sleep(start);
        let mut s = Stream::new(&vi, depth, WaitMode::Poll);
        for _ in 0..msgs {
            s.post(ctx, Descriptor::send().segment(buf, mh, size as u32))
                .expect("post_send");
        }
        s.drain(ctx);
    })
}

/// Run `flows` to completion on `rig`: spawn every receiver in flow
/// order, then every sender, run the engine (and the rig's oracles), and
/// return the receivers' traces in flow order. The name closures get the
/// flow's index and the flow.
pub(crate) fn run_flows(
    rig: &Rig,
    flows: &[Flow],
    rx_name: impl Fn(usize, &Flow) -> String,
    tx_name: impl Fn(usize, &Flow) -> String,
    mark: SimTime,
) -> Vec<RxTrace> {
    let cluster = &rig.cluster;
    let rx: Vec<_> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| spawn_rx(cluster, f, rx_name(i, f), mark))
        .collect();
    let tx: Vec<_> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| spawn_tx(cluster, f, tx_name(i, f)))
        .collect();
    rig.run();
    for t in tx {
        t.expect_result();
    }
    rx.into_iter().map(|h| h.expect_result()).collect()
}
