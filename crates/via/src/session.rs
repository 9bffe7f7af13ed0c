//! Crash-surviving channels: exactly-once delivery over reconnecting VIs.
//!
//! A VIA connection dies with its endpoints — a node crash (see
//! `fabric::FaultPlan::node_down`) wipes the provider and flushes every
//! VI into [`ConnState::Error`]. The session layer rebuilds delivery
//! guarantees *above* that: a [`SessionSender`] / [`SessionReceiver`]
//! pair survives any number of connection deaths and still delivers
//! every message **exactly once, in order**, checkable by oracle.
//!
//! The machinery, all host-durable (it lives in the application process
//! and registered memory, which a crash wipe deliberately preserves):
//!
//! - **Journal** — the sender keeps every unacknowledged message in a
//!   bounded replay journal; `send` backpressures when it fills. After a
//!   reconnect the whole journal is retransmitted.
//! - **Session sequence numbers** — every message carries a
//!   session-global sequence that is *never* reset across reconnects.
//!   The receiver delivers `seq == expect_next`, re-acknowledges and
//!   drops `seq < expect_next` (a replay of something already
//!   delivered), and counts anything above as a protocol violation.
//!   Cumulative acknowledgments flow back as tiny session messages and
//!   trim the journal.
//! - **Epochs** — each successful (re)connect bumps the session epoch,
//!   stamped into every header. Purely diagnostic: dedup rides the
//!   never-reset sequence space, so even a stale frame surfacing across
//!   an epoch boundary cannot double-deliver.
//! - **Reconnect with backoff** — the sender retries `connect` with
//!   capped exponential backoff and deterministic content-keyed jitter
//!   (seeded from node, VI, and attempt number — no shared RNG stream,
//!   so a backoff never depends on unrelated traffic). The receiver
//!   re-accepts on the same discriminator, first discarding all but the
//!   newest parked connection request (earlier ones are abandoned
//!   retries of the same client).
//!
//! Crash detection is the transport's job: enable the profile's
//! [`HeartbeatParams`](crate::profile::HeartbeatParams) keepalive so a
//! peer blocked in `recv_wait` on a dead connection is flushed out in
//! bounded time (`ConnState::Error { cause: PeerDown }`) instead of
//! waiting forever. Sessions work without heartbeats on a healthy
//! fabric, but recovery from an asymmetric half-open connection (one
//! side Connected to a peer that gave up) relies on the watchdog.

use fabric::NodeId;
use simkit::{ProcessCtx, SimDuration, SimRng};

use crate::descriptor::{Completion, Descriptor};
use crate::kit::registered;
use crate::provider::Provider;
use crate::types::{Discriminator, MemHandle, Reliability, ViAttributes, ViaResult};
use crate::vi::{ConnState, Vi};

/// Bytes of the session header: type (1) + epoch (8) + sequence (8).
pub const SESSION_HDR_BYTES: u64 = 17;

const MSG_DATA: u8 = 1;
const MSG_ACK: u8 = 2;
/// End-of-stream marker. Rides the journal like a data message — it
/// consumes a session sequence and is replayed across crashes — so the
/// receiver learns the stream is over exactly once, no matter how many
/// connection deaths the close itself straddles.
const MSG_FIN: u8 = 3;

fn encode_header(buf: &mut Vec<u8>, ty: u8, epoch: u64, seq: u64) {
    buf.push(ty);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
}

fn decode_header(bytes: &[u8]) -> Option<(u8, u64, u64)> {
    if bytes.len() < SESSION_HDR_BYTES as usize {
        return None;
    }
    let ty = bytes[0];
    let epoch = u64::from_le_bytes(bytes[1..9].try_into().unwrap());
    let seq = u64::from_le_bytes(bytes[9..17].try_into().unwrap());
    Some((ty, epoch, seq))
}

/// Receive descriptors kept posted (per endpoint).
const DEPTH: usize = 8;
/// Maximum payload bytes per session message.
const MSG_SIZE: u64 = 1024;
/// Unacknowledged messages the sender journals before `send`
/// backpressures (blocks reaping acknowledgments).
const JOURNAL_CAP: usize = 32;
/// First reconnect backoff delay (doubles per consecutive failure).
const BACKOFF_BASE: SimDuration = SimDuration::from_micros(200);
/// Backoff ceiling.
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(10);
/// Per-attempt `connect` timeout. Must comfortably exceed the profile's
/// handshake constants plus the peer's heartbeat-watchdog detection time,
/// or a live-but-slow accept reads as a dead peer.
const CONNECT_TIMEOUT: SimDuration = SimDuration::from_millis(10);
/// How long a closing receiver lingers for the sender's clean teardown,
/// re-acknowledging replays of the final messages whose acks a crash may
/// have eaten. Must exceed the sender's worst-case reconnect time (crash
/// window + backoff + handshake), or a recovering sender finds nobody to
/// replay to.
const LINGER_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// Counters kept by both session endpoints (sender and receiver each
/// populate the fields that apply to their role).
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Successful connects (first connect + every reconnect).
    pub epochs: u64,
    /// Successful *re*connects (epochs minus the first).
    pub reconnects: u64,
    /// Connect attempts, including failed ones (sender only).
    pub connect_attempts: u64,
    /// Distinct messages handed to `send`.
    pub sent: u64,
    /// Journal entries retired by cumulative acknowledgments.
    pub acked: u64,
    /// Journal entries retransmitted after a reconnect.
    pub replays: u64,
    /// Messages delivered to the application exactly once.
    pub delivered: u64,
    /// Replayed messages discarded by sequence dedup (already delivered).
    pub dups_dropped: u64,
    /// Messages above `expect_next` — impossible under in-order replay;
    /// nonzero means a protocol bug.
    pub out_of_order: u64,
    /// Session acknowledgments emitted (receiver only).
    pub acks_sent: u64,
    /// Undelivered completions discarded during connection recovery
    /// (never acknowledged, so the sender replays them).
    pub discarded_in_recovery: u64,
    /// Parked connection requests discarded as abandoned retries.
    pub stale_requests_dropped: u64,
}

/// The sending endpoint of a crash-surviving session.
pub struct SessionSender {
    vi: Vi,
    remote: NodeId,
    disc: Discriminator,
    mh: MemHandle,
    /// Scratch buffer data messages are staged in (`post_send` snapshots
    /// the bytes synchronously, so one buffer serves every in-flight send).
    data_va: u64,
    /// Buffers posted for inbound acknowledgments, FIFO — completions
    /// consume posted receives in order, so the front VA is always the
    /// one the next receive completion landed in.
    ack_ring: std::collections::VecDeque<u64>,
    ack_free: Vec<u64>,
    /// Unacknowledged `(seq, type, payload)` entries, oldest first.
    journal: std::collections::VecDeque<(u64, u8, Vec<u8>)>,
    next_seq: u64,
    /// Next sequence to put on the wire in the current epoch (rewound to
    /// the journal front at every reconnect — that is the replay).
    next_to_post: u64,
    /// Sequences below this have been posted at least once ever
    /// (separates first transmissions from replays in the stats).
    posted_highwater: u64,
    acked_cum: u64,
    epoch: u64,
    attempt_streak: u32,
    stats: SessionStats,
}

impl SessionSender {
    /// Create the sending endpoint. Allocates and registers its buffers
    /// and pre-posts acknowledgment receives; the connection itself is
    /// established lazily by the first `send` (and re-established as
    /// often as it dies).
    pub fn new(
        provider: &Provider,
        ctx: &mut ProcessCtx,
        remote: NodeId,
        disc: Discriminator,
    ) -> ViaResult<Self> {
        let vi = provider.create_vi(
            ctx,
            ViAttributes::reliable(Reliability::ReliableDelivery),
            None,
            None,
        )?;
        let data_len = SESSION_HDR_BYTES + MSG_SIZE;
        let total = data_len + DEPTH as u64 * SESSION_HDR_BYTES;
        let (base, mh) = registered(ctx, provider, total);
        let ack_free: Vec<u64> = (0..DEPTH as u64)
            .map(|i| base + data_len + i * SESSION_HDR_BYTES)
            .collect();
        let mut s = SessionSender {
            vi,
            remote,
            disc,
            mh,
            data_va: base,
            ack_ring: std::collections::VecDeque::new(),
            ack_free,
            journal: std::collections::VecDeque::new(),
            next_seq: 0,
            next_to_post: 0,
            posted_highwater: 0,
            acked_cum: 0,
            epoch: 0,
            attempt_streak: 0,
            stats: SessionStats::default(),
        };
        s.repost_acks(ctx);
        Ok(s)
    }

    /// Session counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Unacknowledged messages currently journaled.
    pub fn journaled(&self) -> usize {
        self.journal.len()
    }

    /// The underlying VI (telemetry / oracle access).
    pub fn vi(&self) -> &Vi {
        &self.vi
    }

    /// Queue `payload` for exactly-once delivery and push it toward the
    /// wire. Returns the message's session sequence. Blocks while the
    /// journal is full (waiting on acknowledgments, reconnecting as
    /// needed) — the bounded journal is the session's flow control.
    pub fn send(&mut self, ctx: &mut ProcessCtx, payload: &[u8]) -> u64 {
        assert!(
            payload.len() as u64 <= MSG_SIZE,
            "session payload {} exceeds {MSG_SIZE} bytes",
            payload.len(),
        );
        self.reap(ctx);
        while self.journal.len() >= JOURNAL_CAP {
            self.step(ctx);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.journal.push_back((seq, MSG_DATA, payload.to_vec()));
        self.stats.sent += 1;
        self.ensure_connected(ctx);
        self.flush_window(ctx);
        seq
    }

    /// Block until every journaled message has been acknowledged,
    /// reconnecting and replaying through as many connection deaths as
    /// it takes.
    pub fn drain(&mut self, ctx: &mut ProcessCtx) {
        self.reap(ctx);
        while !self.journal.is_empty() {
            self.step(ctx);
        }
    }

    /// Send the end-of-stream marker, drain the journal through as many
    /// reconnects as it takes, then hand the lingering receiver a clean
    /// teardown. The FIN goes through the journal, so its delivery is as
    /// exactly-once as any data message; the closing handshake after it
    /// is best-effort (bounded attempts) — by then everything is
    /// acknowledged and the receiver's linger deadline bounds its wait.
    pub fn close(mut self, ctx: &mut ProcessCtx) -> SessionStats {
        self.reap(ctx);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.journal.push_back((seq, MSG_FIN, Vec::new()));
        self.drain(ctx);
        for _ in 0..5 {
            let provider = self.vi.provider().clone();
            match self.vi.conn_state() {
                ConnState::Connected { .. } => {
                    let _ = provider.disconnect(ctx, &self.vi);
                    break;
                }
                ConnState::Error { .. } => {
                    let _ = provider.disconnect(ctx, &self.vi);
                }
                ConnState::Idle => {
                    // A crash ate the connection between the final ack and
                    // the goodbye; reconnect once just to disconnect cleanly.
                    if provider
                        .connect(ctx, &self.vi, self.remote, self.disc, Some(CONNECT_TIMEOUT))
                        .is_err()
                    {
                        ctx.sleep(BACKOFF_BASE);
                    }
                }
                ConnState::Connecting => {
                    unreachable!("session owns the VI; nobody else connects it")
                }
            }
        }
        self.reap(ctx);
        self.stats
    }

    /// One unit of forward progress while waiting on the journal: make
    /// sure we are connected and the window is on the wire, then block
    /// for the next receive completion — either an acknowledgment or the
    /// error flush of a dying connection (which wakes us to recover).
    fn step(&mut self, ctx: &mut ProcessCtx) {
        self.ensure_connected(ctx);
        self.flush_window(ctx);
        if self.journal.is_empty() {
            return;
        }
        let Some(c) = self.vi.recv_wait_conn(ctx) else {
            // The connection died (or was torn down) while we were blocked;
            // the caller's loop re-enters recovery.
            return;
        };
        self.absorb_ack(ctx, c);
        self.reap(ctx);
    }

    /// Drain every pending completion without blocking.
    fn reap(&mut self, ctx: &mut ProcessCtx) {
        while let Some(c) = self.vi.recv_done(ctx) {
            self.absorb_ack(ctx, c);
        }
        // Send completions carry nothing the session tracks (the journal
        // is trimmed by session-level acks, not transport completions).
        while self.vi.send_done(ctx).is_some() {}
    }

    /// Process one receive completion: a cumulative acknowledgment, or
    /// an error flush returning the buffer for reposting after recovery.
    fn absorb_ack(&mut self, ctx: &mut ProcessCtx, c: Completion) {
        let va = self
            .ack_ring
            .pop_front()
            .expect("receive completion without a posted session buffer");
        if c.status.is_ok() {
            let bytes = self.vi.provider().clone().mem_read(va, SESSION_HDR_BYTES);
            if let Some((MSG_ACK, _epoch, cum)) = decode_header(&bytes) {
                if cum > self.acked_cum {
                    self.acked_cum = cum;
                }
                while self
                    .journal
                    .front()
                    .is_some_and(|(seq, _, _)| *seq < self.acked_cum)
                {
                    let (_, ty, _) = self.journal.pop_front().unwrap();
                    if ty == MSG_DATA {
                        self.stats.acked += 1;
                    }
                }
            }
            self.ack_free.push(va);
            self.repost_acks(ctx);
        } else {
            self.ack_free.push(va);
        }
    }

    /// Re-post every free acknowledgment buffer (refused while the VI is
    /// errored; recovery retries once it is back to Idle).
    fn repost_acks(&mut self, ctx: &mut ProcessCtx) {
        while let Some(va) = self.ack_free.pop() {
            let desc = Descriptor::recv().segment(va, self.mh, SESSION_HDR_BYTES as u32);
            if self.vi.post_recv(ctx, desc).is_ok() {
                self.ack_ring.push_back(va);
            } else {
                self.ack_free.push(va);
                break;
            }
        }
    }

    /// Reconnect loop: clear an errored VI, back off, connect with a
    /// timeout, repeat until connected. Every success opens a new epoch
    /// and rewinds the transmit window to the journal front (the replay).
    fn ensure_connected(&mut self, ctx: &mut ProcessCtx) {
        loop {
            match self.vi.conn_state() {
                ConnState::Connected { .. } => return,
                ConnState::Error { .. } => {
                    // The only exit from Error: flushes nothing new (the
                    // error transition already flushed), returns to Idle.
                    let provider = self.vi.provider().clone();
                    let _ = provider.disconnect(ctx, &self.vi);
                    self.reap(ctx);
                }
                ConnState::Connecting => {
                    unreachable!("session owns the VI; nobody else connects it")
                }
                ConnState::Idle => {
                    self.reap(ctx);
                    self.repost_acks(ctx);
                    if self.attempt_streak > 0 {
                        ctx.sleep(self.backoff_delay());
                    }
                    self.attempt_streak += 1;
                    self.stats.connect_attempts += 1;
                    let provider = self.vi.provider().clone();
                    match provider.connect(
                        ctx,
                        &self.vi,
                        self.remote,
                        self.disc,
                        Some(CONNECT_TIMEOUT),
                    ) {
                        Ok(()) => {
                            self.epoch += 1;
                            self.stats.epochs += 1;
                            if self.epoch > 1 {
                                self.stats.reconnects += 1;
                            }
                            self.attempt_streak = 0;
                            self.next_to_post = self
                                .journal
                                .front()
                                .map(|(seq, _, _)| *seq)
                                .unwrap_or(self.next_seq);
                            return;
                        }
                        Err(_) => continue,
                    }
                }
            }
        }
    }

    /// Deterministic capped exponential backoff with content-keyed
    /// jitter: delay for attempt `n` is uniform in `[cap/2, cap]` of the
    /// doubled base, keyed by (cluster seed, node, VI, attempt) — no
    /// shared RNG stream, so the schedule does not depend on unrelated
    /// traffic, yet distinct senders never thundering-herd in lockstep.
    fn backoff_delay(&self) -> SimDuration {
        let shift = (self.attempt_streak.saturating_sub(1)).min(16);
        let exp = BACKOFF_BASE
            .as_nanos()
            .saturating_mul(1u64 << shift)
            .min(BACKOFF_CAP.as_nanos())
            .max(1);
        let provider = self.vi.provider();
        let key = provider.core.seed
            ^ ((provider.node().0 as u64) << 40)
            ^ ((self.vi.id().raw() as u64) << 20)
            ^ self.attempt_streak as u64;
        let mut rng = SimRng::derive(key, "session-backoff");
        SimDuration::from_nanos(exp / 2 + rng.below(exp / 2 + 1))
    }

    /// Put every journaled-but-unposted message in the current epoch's
    /// window on the wire. Stops early if the connection dies mid-loop
    /// (the next recovery rewinds and replays).
    fn flush_window(&mut self, ctx: &mut ProcessCtx) {
        while self.next_to_post < self.next_seq {
            let seq = self.next_to_post;
            let Some((_, ty, payload)) = self.journal.iter().find(|(s, _, _)| *s == seq) else {
                // Acknowledged and trimmed while we weren't looking.
                self.next_to_post += 1;
                continue;
            };
            let mut buf = Vec::with_capacity(SESSION_HDR_BYTES as usize + payload.len());
            encode_header(&mut buf, *ty, self.epoch, seq);
            buf.extend_from_slice(payload);
            let provider = self.vi.provider().clone();
            provider.mem_write(self.data_va, &buf);
            let desc = Descriptor::send().segment(self.data_va, self.mh, buf.len() as u32);
            if self.vi.post_send(ctx, desc).is_err() {
                return;
            }
            if seq < self.posted_highwater {
                self.stats.replays += 1;
            } else {
                self.posted_highwater = seq + 1;
            }
            self.next_to_post += 1;
        }
    }
}

/// The receiving endpoint of a crash-surviving session.
pub struct SessionReceiver {
    vi: Vi,
    disc: Discriminator,
    mh: MemHandle,
    ack_va: u64,
    /// Buffers posted for inbound data, FIFO against receive completions.
    ring: std::collections::VecDeque<u64>,
    free: Vec<u64>,
    expect_next: u64,
    last_epoch: u64,
    /// A first accept has succeeded (distinguishes pre-session Idle from
    /// the peer's clean close).
    started: bool,
    /// We are mid-recovery (our own Error → disconnect → re-accept), so
    /// an Idle VI is *not* a peer close.
    recovering: bool,
    /// The end-of-stream marker has been delivered.
    fin_seen: bool,
    stats: SessionStats,
}

impl SessionReceiver {
    /// Create the receiving endpoint. Buffers are allocated, registered,
    /// and pre-posted; the first `recv` blocks in accept.
    pub fn new(provider: &Provider, ctx: &mut ProcessCtx, disc: Discriminator) -> ViaResult<Self> {
        let vi = provider.create_vi(
            ctx,
            ViAttributes::reliable(Reliability::ReliableDelivery),
            None,
            None,
        )?;
        let slot = SESSION_HDR_BYTES + MSG_SIZE;
        let total = SESSION_HDR_BYTES + DEPTH as u64 * slot;
        let (base, mh) = registered(ctx, provider, total);
        let free: Vec<u64> = (0..DEPTH as u64)
            .map(|i| base + SESSION_HDR_BYTES + i * slot)
            .collect();
        let mut r = SessionReceiver {
            vi,
            disc,
            mh,
            ack_va: base,
            ring: std::collections::VecDeque::new(),
            free,
            expect_next: 0,
            last_epoch: 0,
            started: false,
            recovering: false,
            fin_seen: false,
            stats: SessionStats::default(),
        };
        r.top_up(ctx);
        Ok(r)
    }

    /// Session counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The underlying VI (telemetry / oracle access).
    pub fn vi(&self) -> &Vi {
        &self.vi
    }

    /// Deliver the next session message, exactly once and in order, or
    /// `None` when the peer closed the session (end-of-stream marker
    /// delivered, or a clean teardown observed). Accepts the initial
    /// connection, re-accepts through crash recovery, dedups replays,
    /// and acknowledges everything it consumes.
    pub fn recv(&mut self, ctx: &mut ProcessCtx) -> Option<Vec<u8>> {
        if self.fin_seen {
            return None;
        }
        loop {
            // Keep the ack send queue reaped (nothing to learn from it).
            while self.vi.send_done(ctx).is_some() {}
            match self.vi.conn_state() {
                ConnState::Connected { .. } => {}
                ConnState::Error { .. } => {
                    self.recovering = true;
                    self.recycle_flushed(ctx);
                    let provider = self.vi.provider().clone();
                    let _ = provider.disconnect(ctx, &self.vi);
                    continue;
                }
                ConnState::Idle => {
                    self.recycle_flushed(ctx);
                    if self.started && !self.recovering {
                        // Clean teardown by the peer: end of session.
                        return None;
                    }
                    self.top_up(ctx);
                    self.drop_stale_requests();
                    let provider = self.vi.provider().clone();
                    if provider.accept(ctx, &self.vi, self.disc).is_ok() {
                        self.started = true;
                        self.recovering = false;
                        self.stats.epochs += 1;
                        if self.stats.epochs > 1 {
                            self.stats.reconnects += 1;
                        }
                    }
                    continue;
                }
                ConnState::Connecting => {
                    unreachable!("a receiver VI never initiates a connect")
                }
            }
            let Some(c) = self.vi.recv_wait_conn(ctx) else {
                // The connection died (or the peer tore it down) while we
                // were blocked; re-run the state machine.
                continue;
            };
            let va = self
                .ring
                .pop_front()
                .expect("receive completion without a posted session buffer");
            if c.status.is_err() {
                // Error flush: recovery resumes at the top of the loop.
                self.free.push(va);
                continue;
            }
            let bytes = self.vi.provider().mem_read(va, c.length);
            // Return the buffer to service before deciding what we got.
            let desc =
                Descriptor::recv().segment(va, self.mh, (SESSION_HDR_BYTES + MSG_SIZE) as u32);
            if self.vi.post_recv(ctx, desc).is_ok() {
                self.ring.push_back(va);
            } else {
                self.free.push(va);
            }
            let Some((ty, epoch, seq)) = decode_header(&bytes) else {
                continue;
            };
            self.last_epoch = epoch;
            if seq == self.expect_next {
                self.expect_next += 1;
                self.send_ack(ctx);
                if ty == MSG_FIN {
                    self.fin_seen = true;
                    return None;
                }
                self.stats.delivered += 1;
                return Some(bytes[SESSION_HDR_BYTES as usize..].to_vec());
            } else if seq < self.expect_next {
                // Replay of something already delivered: drop, but re-ack
                // so the sender's journal learns what it missed.
                self.stats.dups_dropped += 1;
                self.send_ack(ctx);
            } else {
                // In-order transport + from-the-front replay should make
                // this impossible; counted so the oracle can assert it.
                self.stats.out_of_order += 1;
            }
        }
    }

    /// Tear the receiving endpoint down. Lingers: the acknowledgment of
    /// the final messages can be eaten by a crash, in which case the
    /// sender comes back to replay them — so keep re-accepting and
    /// re-acknowledging until the sender's clean teardown is observed,
    /// or the linger deadline passes (sender gone for good; everything
    /// owed was already delivered and acknowledged).
    pub fn close(mut self, ctx: &mut ProcessCtx) -> SessionStats {
        let deadline = ctx.now() + LINGER_TIMEOUT;
        loop {
            while self.vi.send_done(ctx).is_some() {}
            let provider = self.vi.provider().clone();
            match self.vi.conn_state() {
                ConnState::Idle if self.started && !self.recovering => break,
                ConnState::Idle => {
                    self.recycle_flushed(ctx);
                    self.top_up(ctx);
                    self.drop_stale_requests();
                    let now = ctx.now();
                    if now >= deadline {
                        break;
                    }
                    if provider
                        .accept_timeout(
                            ctx,
                            &self.vi,
                            self.disc,
                            Some(deadline.saturating_duration_since(now)),
                        )
                        .is_ok()
                    {
                        self.recovering = false;
                        self.stats.epochs += 1;
                        self.stats.reconnects += 1;
                    }
                }
                ConnState::Error { .. } => {
                    self.recovering = true;
                    self.recycle_flushed(ctx);
                    let _ = provider.disconnect(ctx, &self.vi);
                }
                ConnState::Connected { .. } => {
                    let Some(c) = self.vi.recv_wait_conn(ctx) else {
                        continue;
                    };
                    let va = self
                        .ring
                        .pop_front()
                        .expect("receive completion without a posted session buffer");
                    if c.status.is_err() {
                        self.free.push(va);
                        continue;
                    }
                    let bytes = provider.mem_read(va, c.length);
                    let desc = Descriptor::recv().segment(
                        va,
                        self.mh,
                        (SESSION_HDR_BYTES + MSG_SIZE) as u32,
                    );
                    if self.vi.post_recv(ctx, desc).is_ok() {
                        self.ring.push_back(va);
                    } else {
                        self.free.push(va);
                    }
                    if let Some((ty, epoch, seq)) = decode_header(&bytes) {
                        self.last_epoch = epoch;
                        if seq == self.expect_next && ty == MSG_FIN {
                            // A FIN the application never waited for
                            // (close before end-of-stream).
                            self.expect_next += 1;
                            self.fin_seen = true;
                        } else if seq < self.expect_next {
                            self.stats.dups_dropped += 1;
                        }
                        self.send_ack(ctx);
                    }
                }
                ConnState::Connecting => {
                    unreachable!("a receiver VI never initiates a connect")
                }
            }
        }
        if matches!(self.vi.conn_state(), ConnState::Connected { .. }) {
            let provider = self.vi.provider().clone();
            let _ = provider.disconnect(ctx, &self.vi);
        }
        self.stats
    }

    /// Emit a cumulative acknowledgment: "I have everything below
    /// `expect_next`". Failure to post (connection died under us) is
    /// fine — the sender replays and we re-ack.
    fn send_ack(&mut self, ctx: &mut ProcessCtx) {
        let mut buf = Vec::with_capacity(SESSION_HDR_BYTES as usize);
        encode_header(&mut buf, MSG_ACK, self.last_epoch, self.expect_next);
        let provider = self.vi.provider().clone();
        provider.mem_write(self.ack_va, &buf);
        let desc = Descriptor::send().segment(self.ack_va, self.mh, SESSION_HDR_BYTES as u32);
        if self.vi.post_send(ctx, desc).is_ok() {
            self.stats.acks_sent += 1;
        }
    }

    /// Reap completions stranded by a connection death. Undelivered data
    /// is discarded *without* advancing `expect_next` or acking — the
    /// sender still owns those messages and will replay them, so
    /// discarding here is what makes delivery exactly-once rather than
    /// at-least-once.
    fn recycle_flushed(&mut self, ctx: &mut ProcessCtx) {
        while let Some(c) = self.vi.recv_done(ctx) {
            let va = self
                .ring
                .pop_front()
                .expect("receive completion without a posted session buffer");
            self.free.push(va);
            if c.status.is_ok() {
                self.stats.discarded_in_recovery += 1;
            }
        }
    }

    /// Post every free buffer (pre-posting on an Idle VI is allowed and
    /// counts toward the credit grant at the next accept).
    fn top_up(&mut self, ctx: &mut ProcessCtx) {
        while let Some(va) = self.free.pop() {
            let desc =
                Descriptor::recv().segment(va, self.mh, (SESSION_HDR_BYTES + MSG_SIZE) as u32);
            if self.vi.post_recv(ctx, desc).is_ok() {
                self.ring.push_back(va);
            } else {
                self.free.push(va);
                break;
            }
        }
    }

    /// During a reconnect storm every abandoned client attempt leaves a
    /// parked request behind; only the newest can still have a waiting
    /// client. Dropping the others is safe even when racing a fresh
    /// attempt: a client whose request is discarded times out and
    /// retries.
    fn drop_stale_requests(&mut self) {
        let provider = self.vi.provider().clone();
        let mut st = provider.lock();
        if let Some(q) = st.pending_conn.get_mut(&self.disc) {
            while q.len() > 1 {
                q.pop_front();
                self.stats.stale_requests_dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{HeartbeatParams, Profile};
    use crate::provider::Cluster;
    use simkit::Sim;

    #[test]
    fn header_roundtrip() {
        let mut buf = Vec::new();
        encode_header(&mut buf, MSG_DATA, 3, 0x0123_4567_89AB_CDEF);
        assert_eq!(buf.len() as u64, SESSION_HDR_BYTES);
        assert_eq!(
            decode_header(&buf),
            Some((MSG_DATA, 3, 0x0123_4567_89AB_CDEF))
        );
        assert_eq!(decode_header(&buf[..16]), None);
    }

    #[test]
    fn clean_session_delivers_in_order_and_closes() {
        let sim = Sim::new();
        let mut profile = Profile::clan();
        profile.heartbeat = Some(HeartbeatParams::fast());
        let cluster = Cluster::new(sim.clone(), profile, 2, 11);
        let (pa, pb) = (cluster.provider(0), cluster.provider(1));
        let rh = {
            let pb = pb.clone();
            sim.spawn("receiver", Some(pb.cpu()), move |ctx| {
                let mut rx = SessionReceiver::new(&pb, ctx, Discriminator(5)).unwrap();
                let mut got = Vec::new();
                while let Some(msg) = rx.recv(ctx) {
                    got.push(msg);
                }
                (got, rx.stats())
            })
        };
        let sh = {
            let pa = pa.clone();
            sim.spawn("sender", Some(pa.cpu()), move |ctx| {
                let mut tx =
                    SessionSender::new(&pa, ctx, fabric::NodeId(1), Discriminator(5)).unwrap();
                for i in 0u64..40 {
                    tx.send(ctx, format!("msg-{i}").as_bytes());
                }
                tx.close(ctx)
            })
        };
        sim.run_to_completion();
        let (got, rstats) = rh.expect_result();
        let sstats = sh.expect_result();
        assert_eq!(got.len(), 40);
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, format!("msg-{i}").as_bytes());
        }
        assert_eq!(rstats.delivered, 40);
        assert_eq!(rstats.dups_dropped, 0);
        assert_eq!(rstats.out_of_order, 0);
        assert_eq!(sstats.sent, 40);
        assert_eq!(sstats.acked, 40);
        assert_eq!(sstats.reconnects, 0);
        let audit = cluster.audit();
        assert!(audit.is_clean(), "audit: {:?}", audit.violations);
    }

    #[test]
    fn session_survives_a_receiver_node_crash() {
        // Kill the receiver's node mid-stream: the sender must detect the
        // crash, reconnect after the window, replay its journal, and the
        // receiver must deliver every message exactly once.
        let sim = Sim::new();
        let mut profile = Profile::clan();
        profile.heartbeat = Some(HeartbeatParams::fast());
        let cluster = Cluster::new(sim.clone(), profile, 2, 12);
        let (pa, pb) = (cluster.provider(0), cluster.provider(1));
        cluster
            .san()
            .install_faults(&fabric::FaultPlan::new().node_down(
                fabric::NodeId(1),
                simkit::SimTime::from_nanos(3_000_000),
                SimDuration::from_micros(700),
            ));
        let rh = {
            let pb = pb.clone();
            sim.spawn("receiver", Some(pb.cpu()), move |ctx| {
                let mut rx = SessionReceiver::new(&pb, ctx, Discriminator(5)).unwrap();
                let mut got = Vec::new();
                while let Some(msg) = rx.recv(ctx) {
                    got.push(msg);
                }
                (got, rx.stats())
            })
        };
        let sh = {
            let pa = pa.clone();
            sim.spawn("sender", Some(pa.cpu()), move |ctx| {
                let mut tx =
                    SessionSender::new(&pa, ctx, fabric::NodeId(1), Discriminator(5)).unwrap();
                for i in 0u64..60 {
                    tx.send(ctx, format!("msg-{i}").as_bytes());
                    // Pace the stream across the crash window.
                    ctx.sleep(SimDuration::from_micros(100));
                }
                tx.close(ctx)
            })
        };
        sim.run_to_completion();
        let (got, rstats) = rh.expect_result();
        let sstats = sh.expect_result();
        assert_eq!(got.len(), 60, "exactly-once: every message, no extras");
        for (i, msg) in got.iter().enumerate() {
            assert_eq!(msg, format!("msg-{i}").as_bytes(), "in-order at {i}");
        }
        assert_eq!(rstats.out_of_order, 0);
        assert!(
            sstats.reconnects >= 1,
            "the crash must force at least one reconnect: {sstats:?}"
        );
        assert!(sstats.replays >= 1, "journal must replay: {sstats:?}");
        assert_eq!(pb.stats().node_crashes, 1);
        let audit = cluster.audit();
        assert!(audit.is_clean(), "audit: {:?}", audit.violations);
    }
}
