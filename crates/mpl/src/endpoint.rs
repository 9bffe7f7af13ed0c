//! The message-passing endpoint: tag-matched, rank-addressed send/receive
//! over VIA, with automatic eager/rendezvous protocol selection.
//!
//! Architecture (the classic MPI-over-VIA design the paper's audience was
//! building):
//!
//! * every rank pair has **two VI connections** — an *eager* VI fed by a
//!   ring of pre-posted, pre-registered bounce buffers, and a *bulk* VI
//!   used only for rendezvous payloads, so the FIFO receive queue can be
//!   pointed at the user's buffer without racing the ring;
//! * small messages go **eager**: one copy into a registered bounce slot
//!   on the send side, one copy out of the ring slot on the receive side
//!   (buffer reuse keeps the NIC's translation cache hot — the Fig. 5
//!   lesson);
//! * large messages go **rendezvous**: RTS → receiver posts the user
//!   buffer on the bulk VI → CTS → sender streams zero-copy from its own
//!   registered user buffer;
//! * one completion queue per rank merges every receive queue, drained by
//!   a progress engine that stashes unexpected messages.

use simkit::{ProcessCtx, WaitMode};
use via::{
    registered, Cq, Descriptor, MemAttributes, MemHandle, Mesh, Provider, QueueKind, RecvRing,
    Reliability, ViAttributes,
};

use crate::proto::{self, Kind, Tag};

/// Tag reserved by the layer for its collective operations.
pub const BARRIER_TAG: Tag = 0xFFFF;

/// Layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct MplConfig {
    /// Largest message sent eagerly; larger ones use rendezvous.
    pub eager_threshold: u32,
    /// Pre-posted ring slots per peer.
    pub ring_slots: usize,
    /// Reliability level of every connection (must be supported by the
    /// profile).
    pub reliability: Reliability,
}

impl Default for MplConfig {
    fn default() -> Self {
        MplConfig {
            eager_threshold: 8192,
            ring_slots: 8,
            reliability: Reliability::Unreliable,
        }
    }
}

/// Layer counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct MplStats {
    /// Messages sent via the eager path.
    pub eager_sends: u64,
    /// Messages sent via rendezvous.
    pub rendezvous_sends: u64,
    /// Receives satisfied from the unexpected-message stash.
    pub unexpected_matches: u64,
    /// Receives that matched a parked RTS.
    pub rts_matches: u64,
}

/// The mesh lane carrying eager frames (and RTS/CTS); its receive queue
/// is the peer's ring.
const EAGER: usize = 0;
/// The mesh lane carrying rendezvous payloads only.
const BULK: usize = 1;

/// What this rank keeps per peer besides the mesh lanes.
struct Peer {
    /// The eager lane's pre-posted receive ring, reposted after each use.
    ring: RecvRing,
    /// Bounce buffer for this rank's eager sends to the peer.
    send_slot: (u64, MemHandle),
    /// Small buffer for RTS/CTS control sends.
    ctrl_slot: (u64, MemHandle),
    /// Length of a completed inbound bulk (rendezvous) transfer.
    bulk_done: Option<u64>,
    /// A CTS for this rank's outstanding rendezvous send arrived.
    cts_pending: bool,
}

/// One rank's endpoint. Construct with [`Mpl::attach`] inside the rank's
/// simulated process.
pub struct Mpl {
    provider: Provider,
    rank: usize,
    ranks: usize,
    cfg: MplConfig,
    cq: Cq,
    mesh: Mesh,
    peers: Vec<Option<Peer>>,
    /// Unexpected eager messages: `(src, tag, payload)`.
    unexpected: Vec<(usize, Tag, Vec<u8>)>,
    /// Parked rendezvous requests: `(src, tag, len)`.
    pending_rts: Vec<(usize, Tag, u64)>,
    stats: MplStats,
}

impl Mpl {
    /// Build the endpoint: creates two VIs per peer, wires every receive
    /// queue to one CQ, connects the full mesh (lower rank initiates), and
    /// posts the eager rings. Call from the rank's own process.
    pub fn attach(
        ctx: &mut ProcessCtx,
        provider: Provider,
        rank: usize,
        ranks: usize,
        cfg: MplConfig,
    ) -> Self {
        assert!(ranks >= 2, "a world needs at least two ranks");
        assert!(rank < ranks);
        assert!(
            provider.profile().supports_reliability(cfg.reliability),
            "profile does not support the requested reliability"
        );
        let slot_len = (cfg.eager_threshold as u64).max(64);
        let cq = provider
            .create_cq(ctx, (ranks * (cfg.ring_slots + 2) * 2).max(64))
            .expect("cq");
        let attrs = ViAttributes {
            reliability: cfg.reliability,
            ..Default::default()
        };
        let mut mesh = Mesh::new(rank, ranks);
        let peers = (0..ranks)
            .map(|peer| {
                if peer == rank {
                    return None;
                }
                let lanes = mesh
                    .connect(ctx, &provider, &cq, attrs, peer)
                    .expect("mesh bring-up");
                // Eager receive ring + send-side bounce/control slots.
                let ring = RecvRing::post(ctx, &lanes[EAGER], cfg.ring_slots, slot_len)
                    .expect("ring post");
                let send_slot = registered(ctx, &provider, slot_len);
                let ctrl_slot = registered(ctx, &provider, 64);
                Some(Peer {
                    ring,
                    send_slot,
                    ctrl_slot,
                    bulk_done: None,
                    cts_pending: false,
                })
            })
            .collect();
        Mpl {
            provider,
            rank,
            ranks,
            cfg,
            cq,
            mesh,
            peers,
            unexpected: Vec::new(),
            pending_rts: Vec::new(),
            stats: MplStats::default(),
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Layer counters.
    pub fn stats(&self) -> MplStats {
        self.stats
    }

    /// Register an application buffer for zero-copy rendezvous transfers.
    pub fn register(&self, ctx: &mut ProcessCtx, va: u64, len: u64) -> MemHandle {
        self.provider
            .register_mem(ctx, va, len, MemAttributes::default())
            .expect("user registration")
    }

    /// Allocate application memory (convenience; see [`Provider::malloc`]).
    pub fn malloc(&self, len: u64) -> u64 {
        self.provider.malloc(len)
    }

    /// Raw memory access for tests/examples.
    pub fn mem_write(&self, va: u64, data: &[u8]) {
        self.provider.mem_write(va, data);
    }

    /// Raw memory access for tests/examples.
    pub fn mem_read(&self, va: u64, len: u64) -> Vec<u8> {
        self.provider.mem_read(va, len)
    }

    fn peer(&mut self, rank: usize) -> &mut Peer {
        self.peers[rank]
            .as_mut()
            .unwrap_or_else(|| panic!("no connection to rank {rank}"))
    }

    /// Drive the progress engine through one completion.
    fn progress(&mut self, ctx: &mut ProcessCtx) {
        let (vi_id, kind) = self.cq.wait(ctx, WaitMode::Poll);
        if kind != QueueKind::Recv {
            return;
        }
        let Some((src, lane)) = self.mesh.lane_of(vi_id) else {
            return;
        };
        if lane == BULK {
            // A rendezvous payload landed in the user's buffer.
            let comp = self
                .mesh
                .lane(src, BULK)
                .recv_done(ctx)
                .expect("bulk completion");
            assert!(comp.is_ok(), "bulk recv: {:?}", comp.status);
            self.peer(src).bulk_done = Some(comp.length);
            return;
        }
        let comp = self
            .mesh
            .lane(src, EAGER)
            .recv_done(ctx)
            .expect("eager completion");
        assert!(comp.is_ok(), "eager recv: {:?}", comp.status);
        let (kind, tag) = proto::unpack(comp.immediate.expect("layer messages carry imm"))
            .expect("valid layer immediate");
        let slot = self.peer(src).ring.rotate();
        match kind {
            Kind::Eager => {
                let data = self.provider.mem_read(slot.0, comp.length.max(1))
                    [..comp.length as usize]
                    .to_vec();
                // Stash copy costs host time, like a real unexpected queue.
                ctx.busy(self.provider.profile().host.copy_time(comp.length));
                self.unexpected.push((src, tag, data));
            }
            Kind::Rts => {
                let len = proto::decode_len(&self.provider.mem_read(slot.0, 8));
                self.pending_rts.push((src, tag, len));
            }
            Kind::Cts => {
                self.peer(src).cts_pending = true;
            }
        }
        // Re-arm the slot.
        self.peer(src).ring.repost(ctx, slot).expect("ring repost");
    }

    fn send_eager_frame(
        &mut self,
        ctx: &mut ProcessCtx,
        dst: usize,
        imm: u32,
        slot: (u64, MemHandle),
        len: u64,
    ) {
        let vi = self.mesh.lane(dst, EAGER).clone();
        vi.post_send(
            ctx,
            Descriptor::send()
                .segment(slot.0, slot.1, len as u32)
                .immediate(imm),
        )
        .expect("eager post");
        let comp = vi.send_wait(ctx, WaitMode::Poll);
        assert!(comp.is_ok(), "eager send: {:?}", comp.status);
    }

    /// Blocking tagged send of `len` bytes at `(va, mh)` to `dst`.
    /// `mh` is only dereferenced on the rendezvous path (zero-copy); eager
    /// sends bounce through the layer's registered slot.
    pub fn send(
        &mut self,
        ctx: &mut ProcessCtx,
        dst: usize,
        tag: Tag,
        va: u64,
        mh: MemHandle,
        len: u64,
    ) {
        assert!(tag != BARRIER_TAG, "tag {BARRIER_TAG:#x} is reserved");
        if len <= self.cfg.eager_threshold as u64 {
            self.stats.eager_sends += 1;
            // One copy into the hot, registered bounce slot.
            let slot = self.peer(dst).send_slot;
            if len > 0 {
                let data = self.provider.mem_read(va, len);
                self.provider.mem_write(slot.0, &data);
                ctx.busy(self.provider.profile().host.copy_time(len));
            }
            self.send_eager_frame(ctx, dst, proto::pack(Kind::Eager, tag), slot, len);
        } else {
            self.stats.rendezvous_sends += 1;
            // RTS with the length, wait for CTS, stream zero-copy.
            let ctrl = self.peer(dst).ctrl_slot;
            self.provider.mem_write(ctrl.0, &proto::encode_len(len));
            self.send_eager_frame(ctx, dst, proto::pack(Kind::Rts, tag), ctrl, 8);
            while !self.peer(dst).cts_pending {
                self.progress(ctx);
            }
            self.peer(dst).cts_pending = false;
            let bulk = self.mesh.lane(dst, BULK).clone();
            bulk.post_send(ctx, Descriptor::send().segment(va, mh, len as u32))
                .expect("bulk post");
            let comp = bulk.send_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok(), "bulk send: {:?}", comp.status);
        }
    }

    /// Blocking tagged receive from `src` into `(va, mh, cap)`. Returns the
    /// message length. Panics if the message exceeds `cap` (a protocol
    /// error in the application, as in MPI_ERR_TRUNCATE).
    pub fn recv(
        &mut self,
        ctx: &mut ProcessCtx,
        src: usize,
        tag: Tag,
        va: u64,
        mh: MemHandle,
        cap: u64,
    ) -> u64 {
        loop {
            // 1) Unexpected eager message already stashed?
            if let Some(i) = self
                .unexpected
                .iter()
                .position(|(s, t, _)| *s == src && *t == tag)
            {
                let (_, _, data) = self.unexpected.remove(i);
                assert!(data.len() as u64 <= cap, "message truncated");
                self.stats.unexpected_matches += 1;
                if !data.is_empty() {
                    self.provider.mem_write(va, &data);
                    ctx.busy(self.provider.profile().host.copy_time(data.len() as u64));
                }
                return data.len() as u64;
            }
            // 2) Parked rendezvous request?
            if let Some(i) = self
                .pending_rts
                .iter()
                .position(|(s, t, _)| *s == src && *t == tag)
            {
                let (_, _, len) = self.pending_rts.remove(i);
                assert!(len <= cap, "message truncated");
                self.stats.rts_matches += 1;
                // Post the landing descriptor FIRST, then clear-to-send.
                let bulk = self.mesh.lane(src, BULK).clone();
                bulk.post_recv(ctx, Descriptor::recv().segment(va, mh, len as u32))
                    .expect("bulk landing");
                let ctrl = self.peer(src).ctrl_slot;
                self.send_eager_frame(ctx, src, proto::pack(Kind::Cts, tag), ctrl, 0);
                loop {
                    if let Some(got) = self.peer(src).bulk_done.take() {
                        assert_eq!(got, len, "rendezvous length mismatch");
                        return got;
                    }
                    self.progress(ctx);
                }
            }
            // 3) Nothing matches yet: make progress.
            self.progress(ctx);
        }
    }

    /// A linear barrier over the layer's own messages (rank 0 gathers,
    /// then releases).
    pub fn barrier(&mut self, ctx: &mut ProcessCtx) {
        if self.rank == 0 {
            for r in 1..self.ranks {
                self.recv_barrier(ctx, r);
            }
            for r in 1..self.ranks {
                self.send_barrier(ctx, r);
            }
        } else {
            self.send_barrier(ctx, 0);
            self.recv_barrier(ctx, 0);
        }
    }

    fn send_barrier(&mut self, ctx: &mut ProcessCtx, dst: usize) {
        let ctrl = self.peer(dst).ctrl_slot;
        self.send_eager_frame(ctx, dst, proto::pack(Kind::Eager, BARRIER_TAG), ctrl, 0);
    }

    fn recv_barrier(&mut self, ctx: &mut ProcessCtx, src: usize) {
        loop {
            if let Some(i) = self
                .unexpected
                .iter()
                .position(|(s, t, _)| *s == src && *t == BARRIER_TAG)
            {
                self.unexpected.remove(i);
                return;
            }
            self.progress(ctx);
        }
    }

    /// Populate a world: one spawned process per node of `cluster` (one
    /// rank each) running `body(ctx, mpl)`. Returns the handles in rank
    /// order; the caller keeps the cluster, so it can read or audit it
    /// after the run. (Convenience for tests and benchmarks.)
    pub fn spawn_world<F, R>(
        cluster: &via::Cluster,
        cfg: MplConfig,
        body: F,
    ) -> Vec<simkit::ProcessHandle<R>>
    where
        F: Fn(&mut ProcessCtx, Mpl) -> R + Clone + Send + 'static,
        R: Send + 'static,
    {
        let ranks = cluster.nodes();
        (0..ranks)
            .map(|rank| {
                let provider = cluster.provider(rank);
                let body = body.clone();
                cluster
                    .sim()
                    .spawn(format!("rank{rank}"), Some(provider.cpu()), move |ctx| {
                        let mpl = Mpl::attach(ctx, provider, rank, ranks, cfg);
                        body(ctx, mpl)
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Sim;
    use via::Profile;

    #[test]
    fn default_config_is_sane() {
        let c = MplConfig::default();
        assert_eq!(c.eager_threshold, 8192);
        assert!(c.ring_slots >= 2);
        assert_eq!(c.reliability, Reliability::Unreliable);
    }

    #[test]
    fn attach_builds_a_full_mesh() {
        let cluster = via::Cluster::new(Sim::new(), Profile::clan(), 3, 0);
        let handles = Mpl::spawn_world(&cluster, MplConfig::default(), |_ctx, mpl| {
            // Every peer slot except self is populated.
            (mpl.rank(), mpl.ranks())
        });
        cluster.sim().run_to_completion();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.expect_result(), (i, 3));
        }
    }

    #[test]
    fn stats_start_at_zero() {
        let cluster = via::Cluster::new(Sim::new(), Profile::clan(), 2, 0);
        let handles = Mpl::spawn_world(&cluster, MplConfig::default(), |_ctx, mpl| {
            let s = mpl.stats();
            s.eager_sends + s.rendezvous_sends + s.unexpected_matches + s.rts_matches
        });
        cluster.sim().run_to_completion();
        for h in handles {
            assert_eq!(h.expect_result(), 0);
        }
    }
}
