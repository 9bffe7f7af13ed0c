//! A message's bytes are snapshotted once, when it is posted, and every
//! fragment of every (re)transmission is a window into that snapshot. These
//! tests pin what that must not change: the receiver reads the bytes as
//! they were at post time, whatever the sender does to its buffer after
//! `post_send` returns, and RDMA placements land byte-exact.

use std::sync::Arc;

use parking_lot::Mutex;
use simkit::{ProcessCtx, Sim, SimDuration, WaitMode};
use via::{
    Cluster, Descriptor, Discriminator, MemAttributes, MemHandle, Profile, Provider, Reliability,
    Vi, ViAttributes,
};

/// Lengths of the two segments every message here is gathered from and
/// scattered into: 12 001 bytes, nine fragments on M-VIA, three on BVIA, six
/// on cLAN, with both segment boundaries inside a fragment.
const SEGS: [u32; 2] = [5_000, 7_001];
const LEN: usize = (SEGS[0] + SEGS[1]) as usize;

fn patterned(salt: u8) -> Vec<u8> {
    (0..LEN)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt) ^ (i >> 8) as u8)
        .collect()
}

/// Two registered buffers, each used from an odd offset.
struct TwoSegments {
    vas: [u64; 2],
    handles: [MemHandle; 2],
}

impl TwoSegments {
    fn new(ctx: &mut ProcessCtx, p: &Provider, attrs: MemAttributes) -> Self {
        let bufs = [p.malloc(8192), p.malloc(8192)];
        let handles = bufs.map(|buf| p.register_mem(ctx, buf, 8192, attrs).unwrap());
        TwoSegments {
            vas: [bufs[0] + 7, bufs[1] + 3],
            handles,
        }
    }

    fn describe(&self, desc: Descriptor) -> Descriptor {
        desc.segment(self.vas[0], self.handles[0], SEGS[0]).segment(
            self.vas[1],
            self.handles[1],
            SEGS[1],
        )
    }

    fn write(&self, p: &Provider, bytes: &[u8]) {
        p.mem_write(self.vas[0], &bytes[..SEGS[0] as usize]);
        p.mem_write(self.vas[1], &bytes[SEGS[0] as usize..]);
    }

    fn read(&self, p: &Provider) -> Vec<u8> {
        let mut out = p.mem_read(self.vas[0], SEGS[0] as u64);
        out.extend(p.mem_read(self.vas[1], SEGS[1] as u64));
        out
    }
}

/// Run `client` against a server that receives `msgs` two-segment messages
/// and returns the bytes of each as they sat in memory at its completion.
fn received(
    profile: Profile,
    attrs: ViAttributes,
    msgs: u8,
    client: impl FnOnce(&mut ProcessCtx, &Provider, &Vi) + Send + 'static,
) -> (Vec<Vec<u8>>, Cluster) {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, 2, 24);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let server = sim.spawn("server", Some(pb.cpu()), move |ctx| {
        let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
        let segs = TwoSegments::new(ctx, &pb, MemAttributes::default());
        vi.post_recv(ctx, segs.describe(Descriptor::recv()))
            .unwrap();
        pb.accept(ctx, &vi, Discriminator(1)).unwrap();
        let mut got = Vec::new();
        for i in 0..msgs {
            let comp = vi.recv_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok(), "recv {i}: {:?}", comp.status);
            assert_eq!(comp.length, LEN as u64);
            got.push(segs.read(&pb));
            vi.post_recv(ctx, segs.describe(Descriptor::recv()))
                .unwrap();
        }
        got
    });
    sim.spawn("client", Some(pa.cpu()), move |ctx| {
        let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
        pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
            .unwrap();
        client(ctx, &pa, &vi)
    });
    sim.run_to_completion();
    (server.expect_result(), cluster)
}

/// Post `msgs` messages, scribbling over the source buffers the moment each
/// `post_send` returns — before a single fragment has left on the offload
/// profiles — and only then waiting for the completion.
fn post_then_scribble(msgs: u8) -> impl FnOnce(&mut ProcessCtx, &Provider, &Vi) + Send {
    move |ctx, p, vi| {
        let segs = TwoSegments::new(ctx, p, MemAttributes::default());
        for i in 0..msgs {
            segs.write(p, &patterned(i));
            vi.post_send(ctx, segs.describe(Descriptor::send()))
                .unwrap();
            segs.write(p, &[0xEE; LEN]);
            let comp = vi.send_wait(ctx, WaitMode::Poll);
            assert!(comp.is_ok(), "send {i}: {:?}", comp.status);
            // Let the receiver repost before the next message.
            ctx.sleep(SimDuration::from_millis(1));
        }
    }
}

#[test]
fn the_receiver_reads_the_bytes_as_they_were_at_post_time() {
    for profile in Profile::paper_trio() {
        let name = profile.name;
        assert!(LEN as u32 > 2 * profile.wire_mtu, "{name}: multi-fragment");
        let (got, _) = received(profile, ViAttributes::default(), 3, post_then_scribble(3));
        for (i, bytes) in got.iter().enumerate() {
            assert!(bytes == &patterned(i as u8), "{name}: message {i} differs");
        }
    }
}

#[test]
fn a_retransmission_resends_the_post_time_bytes_not_the_buffer() {
    let mut profile = Profile::clan();
    profile.net = profile.net.with_loss(0.04);
    let attrs = ViAttributes::reliable(Reliability::ReliableDelivery);
    let (got, cluster) = received(profile, attrs, 12, post_then_scribble(12));
    for (i, bytes) in got.iter().enumerate() {
        assert!(bytes == &patterned(i as u8), "message {i} differs");
    }
    let stats = cluster.provider(0).stats();
    assert!(
        stats.retransmissions > 0,
        "4% frame loss over 12 six-fragment messages must force a retransmission: {stats:?}"
    );
}

#[test]
fn an_rdma_write_lands_the_post_time_bytes_at_its_target() {
    for profile in [Profile::mvia(), Profile::clan()] {
        let name = profile.name;
        let sim = Sim::new();
        let cluster = Cluster::new(sim.clone(), profile, 2, 9);
        let (pa, pb) = (cluster.provider(0), cluster.provider(1));
        // The server publishes (va, handle) out of band via this slot.
        let slot = Arc::new(Mutex::new(None));
        let server = {
            let (pb, slot) = (pb.clone(), slot.clone());
            sim.spawn("server", Some(pb.cpu()), move |ctx| {
                let vi = pb
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                let buf = pb.malloc(16 * 1024);
                let mh = pb
                    .register_mem(ctx, buf, 16 * 1024, MemAttributes::default())
                    .unwrap();
                *slot.lock() = Some((buf, mh));
                pb.accept(ctx, &vi, Discriminator(1)).unwrap();
                ctx.sleep(SimDuration::from_millis(5)); // let the write land
                pb.mem_read(buf, 16 * 1024)
            })
        };
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            let (rva, rmh) = slot.lock().expect("server registered first");
            let segs = TwoSegments::new(ctx, &pa, MemAttributes::default());
            segs.write(&pa, &patterned(99));
            vi.post_send(ctx, segs.describe(Descriptor::rdma_write(rva + 33, rmh)))
                .unwrap();
            segs.write(&pa, &[0xEE; LEN]);
            assert!(vi.send_wait(ctx, WaitMode::Poll).is_ok());
        });
        sim.run_to_completion();
        // The target range holds the message; its surroundings stay zero.
        let mut want = vec![0u8; 16 * 1024];
        want[33..33 + LEN].copy_from_slice(&patterned(99));
        assert!(server.expect_result() == want, "{name}: target differs");
        assert_eq!(pb.stats().rdma_writes_in, 1, "{name}");
    }
}

#[test]
fn an_rdma_read_response_lands_byte_exact_across_fragments_and_segments() {
    // RDMA read is an extension (no paper profile enables it): use custom.
    let mut profile = Profile::custom();
    profile.supports_rdma_read = true;
    assert!(LEN as u32 > 2 * profile.wire_mtu, "multi-fragment response");
    let attrs = ViAttributes {
        enable_rdma_read: true,
        ..Default::default()
    };
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, 2, 12);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let slot = Arc::new(Mutex::new(None));
    {
        let slot = slot.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(16 * 1024);
            let readable = MemAttributes {
                enable_rdma_write: false,
                enable_rdma_read: true,
            };
            let mh = pb.register_mem(ctx, buf, 16 * 1024, readable).unwrap();
            pb.mem_write(buf + 100, &patterned(3));
            *slot.lock() = Some((buf, mh));
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            ctx.sleep(SimDuration::from_millis(5));
        });
    }
    let client = sim.spawn("client", Some(pa.cpu()), move |ctx| {
        let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
        pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
            .unwrap();
        let (rva, rmh) = slot.lock().expect("server registered first");
        let segs = TwoSegments::new(ctx, &pa, MemAttributes::default());
        vi.post_send(ctx, segs.describe(Descriptor::rdma_read(rva + 100, rmh)))
            .unwrap();
        let comp = vi.send_wait(ctx, WaitMode::Poll);
        assert!(comp.is_ok(), "{:?}", comp.status);
        assert_eq!(comp.length, LEN as u64);
        segs.read(&pa)
    });
    sim.run_to_completion();
    assert!(client.expect_result() == patterned(3), "response differs");
}
