//! The endpoint kit the layers above VIA build from: registered buffers,
//! pre-posted receive rings and a two-lane full-mesh bring-up. The suite's
//! workloads, the session layer, MPL and DSM each use these instead of a
//! private copy.

use fabric::NodeId;
use simkit::ProcessCtx;

use crate::cq::Cq;
use crate::descriptor::Descriptor;
use crate::mem::MemAttributes;
use crate::provider::Provider;
use crate::types::{Discriminator, MemHandle, ViAttributes, ViId, ViaResult};
use crate::vi::Vi;

/// Allocate `len` bytes and register them with default attributes. The
/// length is part of the timeline, so callers choose between `size` and
/// `size.max(1)` with care: the virtual address of every later buffer,
/// and with it the page straddles the translation cache sees, depends on
/// it. Panics if `len` is 0 (VIA registers no empty region).
pub fn registered(ctx: &mut ProcessCtx, provider: &Provider, len: u64) -> (u64, MemHandle) {
    let va = provider.malloc(len);
    let mh = provider
        .register_mem(ctx, va, len, MemAttributes::default())
        .expect("a fresh allocation registers whole");
    (va, mh)
}

/// Registered receive slots kept posted on one VI. The VI's receive queue
/// is FIFO, so each completion landed in the oldest slot; the caller
/// rotates it out and reposts it when it has read it.
pub struct RecvRing {
    vi: Vi,
    /// Posted slots, oldest first.
    slots: Vec<(u64, MemHandle)>,
    slot_len: u32,
}

impl RecvRing {
    /// Register `slots` buffers of `slot_len` bytes one at a time, posting
    /// each on `vi` as it is registered.
    pub fn post(ctx: &mut ProcessCtx, vi: &Vi, slots: usize, slot_len: u64) -> ViaResult<Self> {
        assert!(slots >= 1, "a receive ring needs a slot");
        let mut ring = RecvRing {
            vi: vi.clone(),
            slots: Vec::with_capacity(slots),
            slot_len: slot_len as u32,
        };
        for _ in 0..slots {
            let slot = registered(ctx, &vi.provider, slot_len);
            ring.repost(ctx, slot)?;
            ring.slots.push(slot);
        }
        Ok(ring)
    }

    /// The VI the ring is posted on.
    pub fn vi(&self) -> &Vi {
        &self.vi
    }

    /// The slot the latest receive completion landed in: the oldest, which
    /// moves to the back of the ring.
    pub fn rotate(&mut self) -> (u64, MemHandle) {
        self.slots.rotate_left(1);
        self.slots[self.slots.len() - 1]
    }

    /// Post `slot` on the ring's VI again.
    pub fn repost(&self, ctx: &mut ProcessCtx, (va, mh): (u64, MemHandle)) -> ViaResult<()> {
        self.vi
            .post_recv(ctx, Descriptor::recv().segment(va, mh, self.slot_len))
    }
}

/// One rank's connections to the other ranks of a world: two VIs (lanes)
/// per peer, brought up one peer at a time by [`Mesh::connect`].
pub struct Mesh {
    rank: usize,
    /// `lanes[peer]`; `None` for this rank and peers not yet connected.
    lanes: Vec<Option<[Vi; 2]>>,
}

impl Mesh {
    /// `rank`'s mesh in a world of `ranks`, with nothing connected yet.
    pub fn new(rank: usize, ranks: usize) -> Self {
        assert!(rank < ranks);
        Mesh {
            rank,
            lanes: (0..ranks).map(|_| None).collect(),
        }
    }

    /// Bring up both lanes to `peer`: create two VIs whose receive queues
    /// feed `cq`, then the lower rank of the pair connects them and the
    /// higher accepts, under discriminators `2 * pair` and `2 * pair + 1`
    /// for the pair's index `pair`. Requests park at the acceptor, so the
    /// two ranks need no other synchronization.
    pub fn connect(
        &mut self,
        ctx: &mut ProcessCtx,
        provider: &Provider,
        cq: &Cq,
        attrs: ViAttributes,
        peer: usize,
    ) -> ViaResult<&[Vi; 2]> {
        let lanes = [
            provider.create_vi(ctx, attrs, None, Some(cq))?,
            provider.create_vi(ctx, attrs, None, Some(cq))?,
        ];
        let (lo, hi) = (self.rank.min(peer), self.rank.max(peer));
        let pair = (lo * self.lanes.len() + hi) as u64;
        for (i, vi) in lanes.iter().enumerate() {
            let disc = Discriminator(pair * 2 + i as u64);
            if self.rank < peer {
                provider.connect(ctx, vi, NodeId(peer as u32), disc, None)?;
            } else {
                provider.accept(ctx, vi, disc)?;
            }
        }
        Ok(self.lanes[peer].insert(lanes))
    }

    /// Lane `lane` (0 or 1) to `peer`. Panics if `peer` is not connected.
    pub fn lane(&self, peer: usize, lane: usize) -> &Vi {
        match &self.lanes[peer] {
            Some(l) => &l[lane],
            None => panic!("no connection to rank {peer}"),
        }
    }

    /// The `(peer, lane)` VI `vi` serves, or `None` if it is not one of
    /// this mesh's.
    pub fn lane_of(&self, vi: ViId) -> Option<(usize, usize)> {
        self.lanes.iter().enumerate().find_map(|(peer, l)| {
            let lane = l.as_ref()?.iter().position(|v| v.id() == vi)?;
            Some((peer, lane))
        })
    }
}
