//! Virtual Interfaces: state, work queues, and the public [`Vi`] handle.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use fabric::NodeId;
use simkit::{ProcessCtx, SimDuration, SimTime, WaitMode, WaitToken};

use crate::descriptor::{Completion, DescOp, Descriptor};
use crate::provider::Provider;
use crate::transport;
use crate::types::{CqId, QueueKind, Reliability, ViAttributes, ViId, ViaError, ViaResult};
use crate::wire::MsgKind;

/// Why a VI entered [`ConnState::Error`] — the transport's post-mortem,
/// surfaced so recovery layers can distinguish a dead wire from a dead
/// peer and react accordingly (retry the path vs. wait out a reboot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCause {
    /// Retransmission retries exhausted: the path (or the peer) stopped
    /// acknowledging and the transport gave the connection up.
    RetryExhausted,
    /// The keepalive watchdog stopped hearing the peer's heartbeats: the
    /// remote host is down (crash) or unreachable for longer than the
    /// configured tolerance.
    PeerDown,
    /// This node's NIC was reset under the connection (device-scoped
    /// fault): rings and translation state were wiped, in-flight work lost.
    NicReset,
    /// This node crashed (host-scoped fault): the whole provider's device
    /// state was wiped; the VI was flushed as part of the wipe.
    NodeDown,
}

/// Connection state of a VI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Created, not connected.
    Idle,
    /// Client side: request sent, waiting for accept.
    Connecting,
    /// Connected to `peer_vi` on `peer_node`; `mtu` is the negotiated
    /// maximum transfer size.
    Connected {
        /// Remote node.
        peer_node: NodeId,
        /// Remote VI.
        peer_vi: ViId,
        /// Negotiated per-descriptor byte limit.
        mtu: u32,
    },
    /// Unrecoverable transport error (reliable modes). `cause` records
    /// what killed the connection.
    Error {
        /// What drove the VI into the error state.
        cause: ErrorCause,
    },
}

/// What a posted send snapshots once and every (re)transmission, and every
/// fragment of each, then shares: one allocation, one reference count.
pub(crate) struct TxBuffers {
    /// The source bytes (empty for RDMA reads).
    pub data: Vec<u8>,
    /// Pages the local segments span (for NIC translation).
    pub pages: Vec<u64>,
}

/// A send/RDMA descriptor in flight (posted, not yet completed).
pub(crate) struct InflightSend {
    pub seq: u64,
    pub desc: Descriptor,
    pub bufs: Arc<TxBuffers>,
    pub total_len: u64,
    pub kind: MsgKind,
    pub retries: u32,
    /// When the last fragment of the *first* transmission hit the wire.
    /// Karn's algorithm: only un-retransmitted messages yield RTT samples,
    /// so an ambiguous ACK (original or retry?) never poisons the estimator.
    pub first_tx_at: Option<SimTime>,
    /// Set once the wire/ack protocol finished; the completion may still be
    /// waiting on the completion-write delay.
    pub done: bool,
    /// The armed retransmission timer, if any. Cancelled when the ACK
    /// arrives (or the connection dies) instead of letting a dead closure
    /// ride the heap to its deadline.
    pub retx_timer: Option<simkit::TimerHandle>,
}

/// Reassembly target of an in-progress inbound message.
pub(crate) enum RxTarget {
    /// Send/receive model: scatter into this consumed receive descriptor.
    Recv { desc: Descriptor, imm: Option<u32> },
    /// RDMA write: place at `base_va` (already validated).
    Rdma { base_va: u64, imm: Option<u32> },
    /// RDMA-read response: scatter into the initiator's descriptor
    /// (looked up by `req_seq` at landing time).
    ReadResp { req_seq: u64 },
    /// Fragments are consumed and dropped (no receive descriptor posted, or
    /// protection failure).
    Discard,
}

/// In-progress reassembly of one inbound message.
pub(crate) struct Reassembly {
    pub target: RxTarget,
    pub msg_len: u64,
    pub frag_count: u32,
    pub arrived: u32,
    pub landed: u32,
    pub seen: Vec<bool>,
    /// Deliver the completion with this error (e.g. message overran the
    /// receive buffer).
    pub error: Option<ViaError>,
    pub reliability: Reliability,
}

/// Hashes a message sequence with one multiply (Fibonacci hashing: the
/// odd constant spreads consecutive sequences over both the low bits, which
/// pick the bucket, and the high bits, which tag it). No per-process key,
/// so a map's iteration order is the same in every run.
#[derive(Default)]
pub(crate) struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("reassembly keys are u64 sequences");
    }
    fn write_u64(&mut self, seq: u64) {
        self.0 = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// In-progress reassemblies by message sequence. A hash map, not a
/// `BTreeMap`: one B-tree leaf of these ~140 B values per VI costs the
/// 64-node worlds ~3 MiB of peak RSS (DESIGN.md §4.9).
pub(crate) type ReassemblyMap = HashMap<u64, Reassembly, BuildHasherDefault<SeqHasher>>;

/// One work queue of a VI as its consumer sees it: the completions not yet
/// collected, the process parked waiting for one, and the CQ it reports to.
#[derive(Default)]
pub(crate) struct WorkQueue {
    pub completed: VecDeque<Completion>,
    pub waiter: Option<(WaitToken, WaitMode)>,
    pub cq: Option<CqId>,
}

impl WorkQueue {
    /// Record `token` as the queue's one waiter, woken by the next
    /// completion delivered to it.
    pub(crate) fn park(&mut self, token: WaitToken, mode: WaitMode) -> WaitToken {
        assert!(
            self.waiter.is_none(),
            "two processes waiting on the same work queue"
        );
        self.waiter = Some((token, mode));
        token
    }
}

/// What leaving `Connected` tore down, for the caller to deliver and count.
pub(crate) struct ConnReset {
    /// One `ConnectionLost` completion per in-flight send, oldest first.
    pub lost: Vec<Completion>,
    /// Keepalive timers the reset cancelled (0 or 1).
    pub heartbeat_cancelled: u64,
    /// Retransmission timers the reset cancelled.
    pub retx_cancelled: u64,
}

/// Internal per-VI state.
pub(crate) struct ViState {
    pub attrs: ViAttributes,
    pub conn: ConnState,
    /// The send and receive work queues, indexed by [`QueueKind`].
    pub queues: [WorkQueue; 2],
    pub send_inflight: VecDeque<InflightSend>,
    pub recv_posted: VecDeque<Descriptor>,
    pub next_seq: u64,
    pub connect_waiter: Option<WaitToken>,
    pub connect_result: Option<ViaResult<()>>,
    /// Reassemblies keyed by message sequence (one peer per VI). Iteration
    /// order is the same in every run but is not sequence order: sort
    /// before acting on it.
    pub reassembly: ReassemblyMap,
    /// Which message sequences have been fully delivered (reliable-mode
    /// duplicate detection across out-of-order loss recovery).
    pub delivered: DeliveredTracker,
    /// Completions landed out of order on a reliable connection, parked
    /// until every earlier message has landed (the spec's in-order
    /// delivery guarantee).
    pub parked_recv: BTreeMap<u64, Completion>,
    /// Adaptive retransmission-timeout estimator (reliable modes).
    pub rto: RtoEstimator,
    /// Sender-side flow control: credits consumed by reliable sends this
    /// connection. Available = `initial + credit_seen_total - consumed`.
    pub credits_consumed: u64,
    /// Sender-side flow control: highest cumulative grant total any ACK
    /// has carried back (monotone; stale/reordered ACKs can't regress it).
    pub credit_seen_total: u64,
    /// Sequence numbers of sends parked for want of credits, FIFO. Each is
    /// also in `send_inflight`; none has ever been transmitted.
    pub credit_waiting: VecDeque<u64>,
    /// Receiver-side flow control: cumulative receive descriptors made
    /// available to the peer since connect (piggybacked on every ACK).
    pub credits_granted_total: u64,
    /// Completion notifications this VI lost to a full CQ (per-VI
    /// attribution of the CQ's aggregate overflow counter).
    pub cq_overflows: u64,
    /// Last instant a liveness signal (heartbeat frame) arrived from the
    /// peer. Only meaningful while the profile's keepalive is enabled and
    /// the VI is connected.
    pub last_heard: SimTime,
    /// The armed keepalive timer, if any. Disarmed at teardown / error /
    /// crash so a dead connection never keeps the event loop alive.
    pub heartbeat_timer: Option<simkit::TimerHandle>,
}

/// Jacobson/Karels smoothed-RTT estimator driving the adaptive
/// retransmission timeout.
///
/// The estimator learns the connection's round-trip time from ACKs of
/// *un-retransmitted* messages (Karn's rule) and quotes
/// `SRTT + 4·RTTVAR`, clamped to `[floor, cap]`. The floor is the
/// profile's configured `retransmit_timeout`, so a provider never times
/// out *faster* than its calibrated constant — on a clean wire the
/// adaptive path is timing-identical to the fixed one — while a
/// congested or degraded path raises the quote instead of spraying
/// spurious retransmissions.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtoEstimator {
    /// Smoothed RTT; `None` until the first sample.
    srtt: Option<SimDuration>,
    /// Mean RTT deviation.
    rttvar: SimDuration,
    /// Samples absorbed (diagnostics).
    samples: u64,
}

impl RtoEstimator {
    /// Absorb one RTT sample (RFC 6298 constants: α=1/8, β=1/4).
    pub fn sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let dev = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = self.rttvar - self.rttvar / 4 + dev / 4;
                self.srtt = Some(srtt - srtt / 8 + rtt / 8);
            }
        }
        self.samples += 1;
    }

    /// The base (un-backed-off) timeout: `SRTT + 4·RTTVAR` clamped to
    /// `[floor, cap]`; just `floor` before the first sample.
    pub fn base_timeout(&self, floor: SimDuration, cap: SimDuration) -> SimDuration {
        match self.srtt {
            None => floor,
            Some(srtt) => (srtt + self.rttvar * 4).clamp(floor, cap),
        }
    }

    /// The timeout to arm for a message already retried `retries` times:
    /// exponential backoff (×2 per retry) on the base, capped at `cap`.
    pub fn backed_off(&self, floor: SimDuration, cap: SimDuration, retries: u32) -> SimDuration {
        let base = self.base_timeout(floor, cap);
        let shift = retries.min(32);
        let ns = base.as_nanos().saturating_mul(1u64 << shift);
        SimDuration::from_nanos(ns).min(cap)
    }

    /// Smoothed RTT, if any sample has been absorbed.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Samples absorbed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Forget everything (connection teardown: the next connection may
    /// cross a different path).
    pub fn reset(&mut self) {
        *self = RtoEstimator::default();
    }
}

/// Compact tracker of delivered message sequences: a contiguous highwater
/// plus the sparse set delivered out of order above it (retransmissions can
/// complete younger messages before an older one's retransmit arrives).
#[derive(Default)]
pub struct DeliveredTracker {
    highwater: Option<u64>,
    above: BTreeSet<u64>,
}

impl DeliveredTracker {
    /// Has `seq` been delivered already?
    pub fn contains(&self, seq: u64) -> bool {
        match self.highwater {
            Some(h) if seq <= h => true,
            _ => self.above.contains(&seq),
        }
    }

    /// Record delivery of `seq`, compacting the sparse set into the
    /// highwater when it becomes contiguous.
    pub fn mark(&mut self, seq: u64) {
        let next = self.highwater.map_or(0, |h| h + 1);
        if seq == next {
            let mut h = seq;
            while self.above.remove(&(h + 1)) {
                h += 1;
            }
            self.highwater = Some(h);
        } else if seq > next {
            self.above.insert(seq);
        }
        // seq < next: already covered; nothing to do.
    }

    /// Forget everything (connection teardown).
    pub fn clear(&mut self) {
        self.highwater = None;
        self.above.clear();
    }

    /// Highest sequence up to which delivery is contiguous.
    pub fn highwater(&self) -> Option<u64> {
        self.highwater
    }
}

impl ViState {
    pub(crate) fn new(attrs: ViAttributes, send_cq: Option<CqId>, recv_cq: Option<CqId>) -> Self {
        ViState {
            attrs,
            conn: ConnState::Idle,
            queues: [send_cq, recv_cq].map(|cq| WorkQueue {
                cq,
                ..WorkQueue::default()
            }),
            send_inflight: VecDeque::new(),
            recv_posted: VecDeque::new(),
            next_seq: 0,
            connect_waiter: None,
            connect_result: None,
            reassembly: ReassemblyMap::default(),
            delivered: DeliveredTracker::default(),
            parked_recv: BTreeMap::new(),
            rto: RtoEstimator::default(),
            credits_consumed: 0,
            credit_seen_total: 0,
            credit_waiting: VecDeque::new(),
            credits_granted_total: 0,
            cq_overflows: 0,
            last_heard: SimTime::ZERO,
            heartbeat_timer: None,
        }
    }

    /// The `kind` work queue.
    pub(crate) fn queue(&mut self, kind: QueueKind) -> &mut WorkQueue {
        &mut self.queues[kind as usize]
    }

    /// Sequences of the reassemblies older than `before` that still miss
    /// *arrivals* (ones whose fragments are merely mid-DMA will finish),
    /// ascending. The caller completes their descriptors in this order, so
    /// it must not be the map's, which follows the hash, not the sequence.
    pub(crate) fn stale_reassemblies(&self, before: u64) -> Vec<u64> {
        let mut stale: Vec<u64> = self
            .reassembly
            .iter()
            .filter(|(&s, r)| s < before && r.arrived < r.frag_count)
            .map(|(&s, _)| s)
            .collect();
        stale.sort_unstable();
        stale
    }

    /// Re-arm the credit ledger for a fresh connection: nothing consumed,
    /// no grants seen, and every already-posted receive descriptor counts
    /// as granted (receives may be pre-posted before connecting, and they
    /// survive a teardown).
    pub(crate) fn credit_reset(&mut self) {
        self.credits_consumed = 0;
        self.credit_seen_total = 0;
        self.credit_waiting.clear();
        self.credits_granted_total = self.recv_posted.len() as u64;
    }

    /// Leave `Connected` for `to`: the reset both exits share. Disarms the
    /// keepalive, forgets the connection's reassemblies, delivered tracker,
    /// parked completions, RTO estimate and credit ledger (which re-arms from
    /// the surviving posted receives at the next `Connected` transition),
    /// and pops every in-flight send — credit-parked ones included — with
    /// its retransmission timer cancelled, into a `ConnectionLost`
    /// completion. Posted receives are the caller's to keep or flush.
    ///
    /// Idempotent: the timer handles are *taken* before cancelling, so a
    /// second reset cancels nothing, and it finds every drained collection
    /// empty, so no completion is emitted twice.
    pub(crate) fn reset_connection(&mut self, to: ConnState) -> ConnReset {
        self.conn = to;
        let heartbeat_cancelled = self.disarm_heartbeat() as u64;
        self.reassembly.clear();
        self.delivered.clear();
        self.parked_recv.clear();
        self.rto.reset();
        self.credit_waiting.clear();
        self.credits_consumed = 0;
        self.credit_seen_total = 0;
        self.credits_granted_total = 0;
        let mut retx_cancelled = 0;
        let lost = self
            .send_inflight
            .drain(..)
            .map(|mut inf| {
                if inf.retx_timer.take().is_some_and(|t| t.cancel()) {
                    retx_cancelled += 1;
                }
                Completion::failed(inf.desc.op, ViaError::ConnectionLost)
            })
            .collect();
        ConnReset {
            lost,
            heartbeat_cancelled,
            retx_cancelled,
        }
    }

    /// Resolve a pending connect with `result`; returns the token of the
    /// process waiting for it, if one still waits.
    pub(crate) fn resolve_connect(&mut self, result: ViaResult<()>) -> Option<WaitToken> {
        self.connect_result = Some(result);
        self.connect_waiter
    }

    /// Disarm the keepalive timer, if armed. Returns whether a pending
    /// firing was actually cancelled (an already-fired timer disarms to a
    /// no-op). Safe to call repeatedly: the handle is taken, so a second
    /// call finds nothing to cancel.
    pub(crate) fn disarm_heartbeat(&mut self) -> bool {
        self.heartbeat_timer.take().is_some_and(|t| t.cancel())
    }

    /// Sender-side credits still available under `initial` assumed credits.
    pub(crate) fn credits_available(&self, initial: u32) -> u64 {
        (initial as u64 + self.credit_seen_total).saturating_sub(self.credits_consumed)
    }

    /// The connection's negotiated MTU, if connected.
    pub(crate) fn conn_mtu(&self) -> Option<u32> {
        match self.conn {
            ConnState::Connected { mtu, .. } => Some(mtu),
            _ => None,
        }
    }

    /// The connected peer, if any.
    pub(crate) fn peer(&self) -> Option<(NodeId, ViId)> {
        match self.conn {
            ConnState::Connected {
                peer_node, peer_vi, ..
            } => Some((peer_node, peer_vi)),
            _ => None,
        }
    }
}

/// Public handle to a Virtual Interface — the object VIBe benchmarks drive.
///
/// All methods must be called from the simulated process that owns the
/// provider's node (they charge that node's CPU).
#[derive(Clone)]
pub struct Vi {
    pub(crate) provider: Provider,
    pub(crate) id: ViId,
}

impl Vi {
    /// This VI's id.
    pub fn id(&self) -> ViId {
        self.id
    }

    /// The provider the VI belongs to.
    pub fn provider(&self) -> &Provider {
        &self.provider
    }

    /// Attributes fixed at creation.
    pub fn attrs(&self) -> ViAttributes {
        self.provider.with_vi(self.id, |vi| vi.attrs)
    }

    /// Current connection state.
    pub fn conn_state(&self) -> ConnState {
        self.provider.with_vi(self.id, |vi| vi.conn)
    }

    /// The connected peer `(node, vi)`, if any.
    pub fn peer(&self) -> Option<(NodeId, ViId)> {
        self.provider.with_vi(self.id, |vi| vi.peer())
    }

    /// Post a send-queue descriptor (`VipPostSend`): send, RDMA write, or
    /// RDMA read.
    pub fn post_send(&self, ctx: &mut ProcessCtx, desc: Descriptor) -> ViaResult<()> {
        if desc.op == DescOp::Recv {
            return Err(ViaError::InvalidParameter);
        }
        transport::post_send(&self.provider, ctx, self.id, desc)
    }

    /// Post a receive descriptor (`VipPostRecv`).
    pub fn post_recv(&self, ctx: &mut ProcessCtx, desc: Descriptor) -> ViaResult<()> {
        if desc.op != DescOp::Recv {
            return Err(ViaError::InvalidParameter);
        }
        transport::post_recv(&self.provider, ctx, self.id, desc)
    }

    /// Poll the send queue for a completion (`VipSendDone`).
    pub fn send_done(&self, ctx: &mut ProcessCtx) -> Option<Completion> {
        self.provider.queue_done(ctx, self.id, QueueKind::Send)
    }

    /// Wait for a send completion (`VipSendWait`), polling or blocking.
    pub fn send_wait(&self, ctx: &mut ProcessCtx, mode: WaitMode) -> Completion {
        self.provider
            .queue_wait(ctx, self.id, QueueKind::Send, mode)
    }

    /// Poll the receive queue for a completion (`VipRecvDone`).
    pub fn recv_done(&self, ctx: &mut ProcessCtx) -> Option<Completion> {
        self.provider.queue_done(ctx, self.id, QueueKind::Recv)
    }

    /// Wait for a receive completion (`VipRecvWait`), polling or blocking.
    pub fn recv_wait(&self, ctx: &mut ProcessCtx, mode: WaitMode) -> Completion {
        self.provider
            .queue_wait(ctx, self.id, QueueKind::Recv, mode)
    }

    /// Like [`Self::recv_wait`] blocking, but `None` once the VI is seen
    /// off `Connected`: the session layer's signal to recover.
    pub(crate) fn recv_wait_conn(&self, ctx: &mut ProcessCtx) -> Option<Completion> {
        self.provider
            .queue_wait_conn(ctx, self.id, QueueKind::Recv, WaitMode::Block)
    }

    /// Sends parked by credit-based flow control (posted, in flight, but
    /// not yet allowed onto the wire).
    pub fn sends_credit_parked(&self) -> usize {
        self.provider.with_vi(self.id, |vi| vi.credit_waiting.len())
    }

    /// Completion notifications this VI lost to a full CQ. The sum over a
    /// CQ's VIs equals that CQ's aggregate [`crate::Cq::overflows`].
    pub fn cq_overflows(&self) -> u64 {
        self.provider.with_vi(self.id, |vi| vi.cq_overflows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MemHandle;

    #[test]
    fn vistate_defaults() {
        let vi = ViState::new(ViAttributes::default(), None, None);
        assert_eq!(vi.conn, ConnState::Idle);
        assert!(vi.conn_mtu().is_none());
        assert!(vi.peer().is_none());
        assert_eq!(vi.next_seq, 0);
    }

    #[test]
    fn connected_state_reports_peer_and_mtu() {
        let mut vi = ViState::new(ViAttributes::default(), None, None);
        vi.conn = ConnState::Connected {
            peer_node: NodeId(1),
            peer_vi: ViId(4),
            mtu: 32 * 1024,
        };
        assert_eq!(vi.conn_mtu(), Some(32 * 1024));
        assert_eq!(vi.peer(), Some((NodeId(1), ViId(4))));
    }

    #[test]
    fn delivered_tracker_compacts() {
        let mut t = DeliveredTracker::default();
        assert!(!t.contains(0));
        t.mark(0);
        t.mark(1);
        assert!(t.contains(0) && t.contains(1));
        assert!(!t.contains(2));
        // Out of order: 3 and 4 before 2.
        t.mark(3);
        t.mark(4);
        assert!(t.contains(3) && t.contains(4));
        assert!(!t.contains(2));
        t.mark(2);
        for i in 0..=4 {
            assert!(t.contains(i), "seq {i}");
        }
        // Re-marking a covered seq is a no-op.
        t.mark(1);
        assert!(t.contains(4));
        t.clear();
        assert!(!t.contains(0));
    }

    #[test]
    fn rto_estimator_quotes_floor_until_sampled() {
        let floor = SimDuration::from_millis(2);
        let cap = SimDuration::from_millis(64);
        let est = RtoEstimator::default();
        assert_eq!(est.base_timeout(floor, cap), floor);
        assert_eq!(est.srtt(), None);
        assert_eq!(est.samples(), 0);
    }

    #[test]
    fn rto_estimator_first_sample_sets_srtt_and_half_var() {
        let mut est = RtoEstimator::default();
        est.sample(SimDuration::from_micros(100));
        assert_eq!(est.srtt(), Some(SimDuration::from_micros(100)));
        // base = srtt + 4 * (srtt/2) = 300us, below a 2ms floor → floor.
        let floor = SimDuration::from_millis(2);
        let cap = SimDuration::from_millis(64);
        assert_eq!(est.base_timeout(floor, cap), floor);
        // With a lower floor the learned quote shows through.
        assert_eq!(
            est.base_timeout(SimDuration::from_micros(10), cap),
            SimDuration::from_micros(300)
        );
    }

    #[test]
    fn rto_estimator_converges_toward_a_steady_rtt() {
        let mut est = RtoEstimator::default();
        for _ in 0..64 {
            est.sample(SimDuration::from_micros(50));
        }
        let srtt = est.srtt().unwrap();
        assert_eq!(srtt, SimDuration::from_micros(50));
        // Variance decays to (near) zero on a steady stream.
        let quote = est.base_timeout(SimDuration::from_nanos(1), SimDuration::from_millis(64));
        assert!(quote < SimDuration::from_micros(60), "quote {quote}");
    }

    #[test]
    fn rto_backoff_doubles_and_caps() {
        let est = RtoEstimator::default();
        let floor = SimDuration::from_millis(1);
        let cap = SimDuration::from_millis(8);
        let seq: Vec<_> = (0..6).map(|r| est.backed_off(floor, cap, r)).collect();
        assert_eq!(seq[0], SimDuration::from_millis(1));
        assert_eq!(seq[1], SimDuration::from_millis(2));
        assert_eq!(seq[2], SimDuration::from_millis(4));
        assert_eq!(seq[3], SimDuration::from_millis(8));
        assert_eq!(seq[4], SimDuration::from_millis(8)); // capped
        assert!(seq.windows(2).all(|w| w[0] <= w[1]), "monotone");
    }

    #[test]
    fn rto_reset_forgets_samples() {
        let mut est = RtoEstimator::default();
        est.sample(SimDuration::from_micros(400));
        est.reset();
        assert_eq!(est.srtt(), None);
        assert_eq!(est.samples(), 0);
    }

    fn two_fragment_reassembly(arrived: u32) -> Reassembly {
        Reassembly {
            target: RxTarget::Recv {
                desc: Descriptor::recv().segment(0, MemHandle::test(0), 64),
                imm: None,
            },
            msg_len: 64,
            frag_count: 2,
            arrived,
            landed: 0,
            seen: vec![false; 2],
            error: None,
            reliability: Reliability::Unreliable,
        }
    }

    #[test]
    fn reassembly_tracks_fragments() {
        let mut r = two_fragment_reassembly(0);
        r.seen[0] = true;
        r.arrived += 1;
        assert_eq!(r.arrived, 1);
        assert!(!r.seen[1]);
    }

    #[test]
    fn stale_reassemblies_come_out_in_sequence_order_and_every_map_iterates_alike() {
        // `SeqHasher` draws no per-map (or per-process) key — the test
        // below pins its output — so twenty fresh maps holding the same
        // seven partial messages all iterate in one order (under
        // `RandomState` they almost surely read several). It is the hash's
        // order, not the sequences', so the stale list still sorts.
        let mut first_order = None;
        for _ in 0..20 {
            let mut vi = ViState::new(ViAttributes::default(), None, None);
            for seq in [11, 3, 8, 5, 2, 13, 7] {
                vi.reassembly.insert(seq, two_fragment_reassembly(1));
            }
            // Fully arrived (mid-DMA) and not-older entries are not stale.
            vi.reassembly.insert(4, two_fragment_reassembly(2));
            let order: Vec<u64> = vi.reassembly.keys().copied().collect();
            assert!(!order.is_sorted(), "{order:?}");
            assert_eq!(first_order.get_or_insert(order.clone()), &order);
            assert_eq!(vi.stale_reassemblies(12), [2, 3, 5, 7, 8, 11]);
        }
    }

    #[test]
    fn seq_hasher_is_one_multiply_and_spreads_consecutive_sequences() {
        use std::hash::BuildHasher;
        let hash = |seq: u64| BuildHasherDefault::<SeqHasher>::default().hash_one(seq);
        assert_eq!(hash(0), 0);
        assert_eq!(hash(1), 0x9E37_79B9_7F4A_7C15);
        // hashbrown takes the bucket from the low bits and the tag from the
        // top seven: 128 consecutive sequences collide in neither.
        let low: BTreeSet<u64> = (0..128).map(|s| hash(s) & 127).collect();
        let top: BTreeSet<u64> = (0..128).map(|s| hash(s) >> 57).collect();
        assert_eq!(low.len(), 128);
        assert!(top.len() > 96, "{} distinct tags", top.len());
    }
}
