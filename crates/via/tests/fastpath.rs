//! Pins that the fused fast path actually engages — not just that it
//! falls back everywhere. A quiet single-fragment ping-pong on the
//! NIC-offload profile is the canonical fuse-eligible workload: every
//! send should take the fused path, every frame's switch-egress hop
//! should fold into its injection, nothing else may elide (landings and
//! ACKs always run as their own events), and the logical event census
//! must balance (audited with the rest of the world at the end of the
//! run).

use simkit::{Sim, WaitMode};
use via::{Cluster, Descriptor, Discriminator, MemAttributes, Profile, ViAttributes};

/// Run `iters` single-fragment ping-pong round trips and return the
/// engine's scheduler stats and the number of frames the fabric carried.
fn ping_pong_stats(profile: Profile, iters: usize, msg: u32) -> (simkit::SchedStats, u64) {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, 2, 7);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let sh = {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pb.malloc(msg as u64);
            let mh = pb
                .register_mem(ctx, buf, msg as u64, MemAttributes::default())
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            for _ in 0..iters {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, msg))
                    .unwrap();
                vi.recv_wait(ctx, WaitMode::Poll);
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, msg))
                    .unwrap();
                vi.send_wait(ctx, WaitMode::Poll);
            }
        })
    };
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let buf = pa.malloc(msg as u64);
            let mh = pa
                .register_mem(ctx, buf, msg as u64, MemAttributes::default())
                .unwrap();
            pa.connect(ctx, &vi, fabric::NodeId(1), Discriminator(1), None)
                .unwrap();
            for _ in 0..iters {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, msg))
                    .unwrap();
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, msg))
                    .unwrap();
                vi.send_wait(ctx, WaitMode::Poll);
                vi.recv_wait(ctx, WaitMode::Poll);
            }
        })
    };
    sim.run_to_completion();
    sh.expect_result();
    ch.expect_result();
    let audit = cluster.audit();
    assert!(audit.is_clean(), "audit violations: {:?}", audit.violations);
    (sim.sched_stats(), cluster.san().stats().frames_sent)
}

/// The fuse knob is process-global and libtest runs tests on parallel
/// threads, so the three legs that pin it run inside one test.
#[test]
fn fuse_knob_legs() {
    offload_ping_pong_fuses();
    disabled_knob_defuses_everything();
    host_emulated_sends_defuse_but_switch_hops_fold();
}

fn offload_ping_pong_fuses() {
    via::fastpath::set_fuse(true);
    let iters = 64;
    let (stats, frames) = ping_pong_stats(Profile::clan(), iters, 64);
    let fuse = &stats.fuse;
    assert!(
        fuse.hits as usize >= 2 * iters,
        "every ping-pong send should fuse: {fuse:?}"
    );
    assert_eq!(
        fuse.attempts,
        fuse.hits + fuse.defused(),
        "fuse ledger must balance: {fuse:?}"
    );
    assert_eq!(stats.macro_events, fuse.hits);
    // Each fused send elides Doorbell x1 + Firmware x4, and every frame
    // (two nodes, so each is the sole writer of the other's downlink)
    // folds its switch-egress hop; nothing else elides.
    assert_eq!(
        stats.events_elided,
        5 * fuse.hits + frames,
        "elided {} for {} hits and {frames} frames",
        stats.events_elided,
        fuse.hits
    );
}

fn disabled_knob_defuses_everything() {
    via::fastpath::set_fuse(false);
    let (stats, _) = ping_pong_stats(Profile::clan(), 16, 64);
    via::fastpath::set_fuse(true);
    let fuse = &stats.fuse;
    assert_eq!(fuse.hits, 0, "knob off must fully defuse: {fuse:?}");
    assert_eq!(stats.macro_events, 0);
    assert!(fuse.cause(simkit::DefuseCause::Disabled) > 0);
}

fn host_emulated_sends_defuse_but_switch_hops_fold() {
    via::fastpath::set_fuse(true);
    let (stats, frames) = ping_pong_stats(Profile::mvia(), 16, 64);
    let fuse = &stats.fuse;
    assert_eq!(
        fuse.hits, 0,
        "host-emulated posts never take the fused send: {fuse:?}"
    );
    assert!(frames >= 32, "one data frame per message: {frames}");
    assert_eq!(
        stats.events_elided, frames,
        "the switch-egress hop is the only elision on emulated profiles"
    );
}
