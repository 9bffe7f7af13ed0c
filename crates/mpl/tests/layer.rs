//! Integration tests of the message-passing layer: protocol selection,
//! tag matching, unexpected messages, collectives, and multi-rank
//! exchanges across the three VIA profiles.

use mpl::{Mpl, MplConfig};
use simkit::Sim;
use via::{Cluster, Profile};

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(salt))
        .collect()
}

/// Two-rank exchange of one message of `len` bytes; returns (receiver's
/// bytes, sender stats, receiver stats).
fn exchange(
    profile: Profile,
    cfg: MplConfig,
    len: usize,
) -> (Vec<u8>, mpl::MplStats, mpl::MplStats) {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, 2, 1);
    let handles = Mpl::spawn_world(&cluster, cfg, move |ctx, mut mpl| {
        let buf = mpl.malloc((len as u64).max(1) + 64);
        let mh = mpl.register(ctx, buf, (len as u64).max(1) + 64);
        if mpl.rank() == 0 {
            mpl.mem_write(buf, &pattern(len, 9));
            mpl.send(ctx, 1, 42, buf, mh, len as u64);
            (Vec::new(), mpl.stats())
        } else {
            let n = mpl.recv(ctx, 0, 42, buf, mh, (len as u64).max(1) + 64);
            assert_eq!(n, len as u64);
            (mpl.mem_read(buf, n.max(1))[..len].to_vec(), mpl.stats())
        }
    });
    sim.run_to_completion();
    let (_, tx_stats) = handles[0].expect_result();
    let (data, rx_stats) = handles[1].expect_result();
    (data, tx_stats, rx_stats)
}

#[test]
fn eager_path_for_small_messages() {
    for p in Profile::paper_trio() {
        let (data, tx, _) = exchange(p.clone(), MplConfig::default(), 1000);
        assert_eq!(data, pattern(1000, 9), "{}", p.name);
        assert_eq!(tx.eager_sends, 1, "{}", p.name);
        assert_eq!(tx.rendezvous_sends, 0, "{}", p.name);
    }
}

#[test]
fn rendezvous_path_for_large_messages() {
    for p in Profile::paper_trio() {
        let (data, tx, rx) = exchange(p.clone(), MplConfig::default(), 20_000);
        assert_eq!(data, pattern(20_000, 9), "{}", p.name);
        assert_eq!(tx.rendezvous_sends, 1, "{}", p.name);
        assert_eq!(rx.rts_matches, 1, "{}", p.name);
    }
}

#[test]
fn threshold_is_inclusive_boundary() {
    let cfg = MplConfig {
        eager_threshold: 4096,
        ..Default::default()
    };
    let (_, tx, _) = exchange(Profile::clan(), cfg, 4096);
    assert_eq!(tx.eager_sends, 1);
    let (_, tx, _) = exchange(Profile::clan(), cfg, 4097);
    assert_eq!(tx.rendezvous_sends, 1);
}

#[test]
fn zero_length_messages_work() {
    let (data, tx, _) = exchange(Profile::bvia(), MplConfig::default(), 0);
    assert!(data.is_empty());
    assert_eq!(tx.eager_sends, 1);
}

#[test]
fn out_of_order_tags_match_correctly() {
    // Sender posts tag A then tag B; receiver asks for B first: A must be
    // stashed as unexpected and still delivered afterward.
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 2);
    let handles = Mpl::spawn_world(&cluster, MplConfig::default(), |ctx, mut mpl| {
        let buf = mpl.malloc(8192);
        let mh = mpl.register(ctx, buf, 8192);
        if mpl.rank() == 0 {
            mpl.mem_write(buf, &pattern(100, 1));
            mpl.send(ctx, 1, 1, buf, mh, 100);
            mpl.mem_write(buf, &pattern(200, 2));
            mpl.send(ctx, 1, 2, buf, mh, 200);
            (Vec::new(), Vec::new(), mpl.stats())
        } else {
            let n2 = mpl.recv(ctx, 0, 2, buf, mh, 8192);
            let b = mpl.mem_read(buf, n2);
            let n1 = mpl.recv(ctx, 0, 1, buf, mh, 8192);
            let a = mpl.mem_read(buf, n1);
            (a, b, mpl.stats())
        }
    });
    sim.run_to_completion();
    let (a, b, stats) = handles[1].expect_result();
    assert_eq!(a, pattern(100, 1));
    assert_eq!(b, pattern(200, 2));
    assert!(stats.unexpected_matches >= 1);
}

#[test]
fn interleaved_eager_and_rendezvous_same_pair() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 3);
    let handles = Mpl::spawn_world(&cluster, MplConfig::default(), |ctx, mut mpl| {
        let buf = mpl.malloc(64 * 1024);
        let mh = mpl.register(ctx, buf, 64 * 1024);
        if mpl.rank() == 0 {
            for (tag, len, salt) in [
                (1u16, 128usize, 1u8),
                (2, 30_000, 2),
                (3, 64, 3),
                (4, 25_000, 4),
            ] {
                mpl.mem_write(buf, &pattern(len, salt));
                mpl.send(ctx, 1, tag, buf, mh, len as u64);
            }
            true
        } else {
            for (tag, len, salt) in [
                (1u16, 128usize, 1u8),
                (2, 30_000, 2),
                (3, 64, 3),
                (4, 25_000, 4),
            ] {
                let n = mpl.recv(ctx, 0, tag, buf, mh, 64 * 1024);
                assert_eq!(n, len as u64, "tag {tag}");
                assert_eq!(mpl.mem_read(buf, n), pattern(len, salt), "tag {tag}");
            }
            true
        }
    });
    sim.run_to_completion();
    assert!(handles.into_iter().all(|h| h.expect_result()));
}

#[test]
fn barrier_synchronizes_four_ranks() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 4, 4);
    let handles = Mpl::spawn_world(&cluster, MplConfig::default(), |ctx, mut mpl| {
        // Ranks reach the barrier at staggered times; everyone must
        // leave it no earlier than the latest arrival.
        let delay = simkit::SimDuration::from_millis(mpl.rank() as u64 * 3);
        ctx.sleep(delay);
        let arrived = ctx.now();
        mpl.barrier(ctx);
        (arrived, ctx.now())
    });
    sim.run_to_completion();
    let results: Vec<_> = handles.into_iter().map(|h| h.expect_result()).collect();
    let latest_arrival = results.iter().map(|(a, _)| *a).max().unwrap();
    for (rank, (_, left)) in results.iter().enumerate() {
        assert!(
            *left >= latest_arrival,
            "rank {rank} left the barrier at {left} before the last arrival {latest_arrival}"
        );
    }
}

#[test]
fn ring_exchange_across_four_ranks() {
    // Each rank sends to (rank+1) % N and receives from (rank-1) % N —
    // the canonical halo-exchange pattern.
    const N: usize = 4;
    const LEN: usize = 12_000; // rendezvous-sized
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::bvia(), N, 5);
    let handles = Mpl::spawn_world(&cluster, MplConfig::default(), |ctx, mut mpl| {
        let rank = mpl.rank();
        let buf_tx = mpl.malloc(LEN as u64);
        let mh_tx = mpl.register(ctx, buf_tx, LEN as u64);
        let buf_rx = mpl.malloc(LEN as u64);
        let mh_rx = mpl.register(ctx, buf_rx, LEN as u64);
        mpl.mem_write(buf_tx, &pattern(LEN, rank as u8));
        let dst = (rank + 1) % N;
        let src = (rank + N - 1) % N;
        // Even ranks send first; odd ranks receive first (avoids the
        // rendezvous handshake interleaving problem of naive rings).
        if rank % 2 == 0 {
            mpl.send(ctx, dst, 7, buf_tx, mh_tx, LEN as u64);
            let n = mpl.recv(ctx, src, 7, buf_rx, mh_rx, LEN as u64);
            assert_eq!(n, LEN as u64);
        } else {
            let n = mpl.recv(ctx, src, 7, buf_rx, mh_rx, LEN as u64);
            assert_eq!(n, LEN as u64);
            mpl.send(ctx, dst, 7, buf_tx, mh_tx, LEN as u64);
        }
        mpl.mem_read(buf_rx, LEN as u64)
    });
    sim.run_to_completion();
    for (rank, h) in handles.into_iter().enumerate() {
        let got = h.expect_result();
        let src = (rank + 4 - 1) % 4;
        assert_eq!(got, pattern(LEN, src as u8), "rank {rank}");
    }
}

#[test]
fn many_small_messages_stress_the_ring() {
    // More messages than ring slots, sent back-to-back: the repost path
    // must keep up without dropping anything (flow control comes from the
    // blocking sends pacing against eager completions).
    const MSGS: usize = 64;
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 6);
    let handles = Mpl::spawn_world(
        &cluster,
        MplConfig {
            ring_slots: 4,
            ..Default::default()
        },
        |ctx, mut mpl| {
            let buf = mpl.malloc(4096);
            let mh = mpl.register(ctx, buf, 4096);
            if mpl.rank() == 0 {
                for i in 0..MSGS {
                    mpl.mem_write(buf, &pattern(256, i as u8));
                    mpl.send(ctx, 1, i as u16, buf, mh, 256);
                    // Pace: eager sends complete locally, so without the
                    // layer-level pacing of a real app we hand the ring a
                    // chance to repost.
                    ctx.sleep(simkit::SimDuration::from_micros(40));
                }
                0
            } else {
                let mut ok = 0;
                for i in 0..MSGS {
                    let n = mpl.recv(ctx, 0, i as u16, buf, mh, 4096);
                    assert_eq!(n, 256);
                    assert_eq!(mpl.mem_read(buf, 256), pattern(256, i as u8), "msg {i}");
                    ok += 1;
                }
                ok
            }
        },
    );
    sim.run_to_completion();
    assert_eq!(handles[1].expect_result(), MSGS);
}

#[test]
fn works_over_reliable_delivery_with_loss() {
    let sim = Sim::new();
    let mut profile = Profile::clan();
    profile.net = profile.net.with_loss(0.05);
    let cfg = MplConfig {
        reliability: via::Reliability::ReliableDelivery,
        ..Default::default()
    };
    let cluster = Cluster::new(sim.clone(), profile, 2, 7);
    let handles = Mpl::spawn_world(&cluster, cfg, |ctx, mut mpl| {
        let buf = mpl.malloc(64 * 1024);
        let mh = mpl.register(ctx, buf, 64 * 1024);
        if mpl.rank() == 0 {
            for (tag, len) in [(1u16, 500usize), (2, 40_000), (3, 120)] {
                mpl.mem_write(buf, &pattern(len, tag as u8));
                mpl.send(ctx, 1, tag, buf, mh, len as u64);
            }
            true
        } else {
            for (tag, len) in [(1u16, 500usize), (2, 40_000), (3, 120)] {
                let n = mpl.recv(ctx, 0, tag, buf, mh, 64 * 1024);
                assert_eq!(n, len as u64);
                assert_eq!(mpl.mem_read(buf, n), pattern(len, tag as u8));
            }
            true
        }
    });
    sim.run_to_completion();
    assert!(handles.into_iter().all(|h| h.expect_result()));
}

#[test]
#[should_panic(expected = "truncated")]
fn oversized_message_panics_like_mpi_err_truncate() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 8);
    let handles = Mpl::spawn_world(&cluster, MplConfig::default(), |ctx, mut mpl| {
        let buf = mpl.malloc(8192);
        let mh = mpl.register(ctx, buf, 8192);
        if mpl.rank() == 0 {
            mpl.send(ctx, 1, 1, buf, mh, 4096);
        } else {
            // Capacity smaller than the incoming message.
            mpl.recv(ctx, 0, 1, buf, mh, 100);
        }
    });
    let _ = sim.run();
    sim.shutdown();
    for h in handles {
        let _ = h.take_result(); // rethrows the receiver's panic
    }
}
