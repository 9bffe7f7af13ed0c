//! Coherence tests of the page-migration DSM: single-writer serialization,
//! data persistence across migrations, contention storms on one page, and
//! disjoint-page parallelism.

use dsm::{run_world, Dsm, PAGE_SIZE};
use simkit::Sim;
use via::{Cluster, Profile};

#[test]
fn shared_counter_sees_every_increment() {
    // The classic DSM smoke test: N ranks each increment a shared counter
    // K times; exclusive page ownership must serialize the updates so no
    // increment is lost.
    const RANKS: usize = 4;
    const PER_RANK: u64 = 25;
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), RANKS, 1);
    let handles = Dsm::spawn_world(&cluster, |ctx, dsm| {
        for _ in 0..PER_RANK {
            dsm.update(ctx, 128, 8, |bytes| {
                let v = u64::from_le_bytes(bytes.try_into().unwrap());
                bytes.copy_from_slice(&(v + 1).to_le_bytes());
            });
        }
        // Rank 0 reads the final value after everyone is done; give the
        // others a synchronization grace period via a spin on the value.
        if dsm.rank() == 0 {
            loop {
                let v = u64::from_le_bytes(dsm.read(ctx, 128, 8).try_into().unwrap());
                if v == RANKS as u64 * PER_RANK {
                    return v;
                }
                ctx.sleep(simkit::SimDuration::from_micros(200));
            }
        }
        0
    });
    run_world(&sim);
    assert_eq!(handles[0].expect_result(), RANKS as u64 * PER_RANK);
}

#[test]
fn data_persists_across_migrations() {
    // Rank 0 writes a pattern; rank 1 reads it; rank 1 overwrites; rank 0
    // reads the overwrite back — through four ownership migrations.
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::bvia(), 2, 2);
    let handles = Dsm::spawn_world(&cluster, |ctx, dsm| {
        let addr = 3 * PAGE_SIZE + 100; // page 3 (homed on rank 1)
        if dsm.rank() == 0 {
            dsm.write(ctx, addr, b"written by rank zero");
            // Wait for rank 1's overwrite.
            loop {
                let got = dsm.read(ctx, addr, 20);
                if &got[..] == b"rewritten by rank 1!" {
                    return true;
                }
                ctx.sleep(simkit::SimDuration::from_micros(300));
            }
        } else {
            // Wait for rank 0's pattern, then replace it.
            loop {
                let got = dsm.read(ctx, addr, 20);
                if &got[..] == b"written by rank zero" {
                    break;
                }
                ctx.sleep(simkit::SimDuration::from_micros(300));
            }
            dsm.write(ctx, addr, b"rewritten by rank 1!");
            true
        }
    });
    run_world(&sim);
    for h in handles {
        assert!(h.expect_result());
    }
}

#[test]
fn one_hot_page_survives_a_contention_storm() {
    // Every rank hammers the same page concurrently: exercises home
    // forwarding, in-flight parking (pending_fwd), and hand-off chains.
    const RANKS: usize = 6;
    const PER_RANK: u64 = 12;
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), RANKS, 3);
    let handles = Dsm::spawn_world(&cluster, |ctx, dsm| {
        let my_slot = 8 + 8 * dsm.rank() as u64; // distinct words, same page
        for i in 0..PER_RANK {
            dsm.update(ctx, my_slot, 8, |bytes| {
                bytes.copy_from_slice(&(i + 1).to_le_bytes());
            });
            // Also bump the shared tally at offset 0.
            dsm.update(ctx, 0, 8, |bytes| {
                let v = u64::from_le_bytes(bytes.try_into().unwrap());
                bytes.copy_from_slice(&(v + 1).to_le_bytes());
            });
        }
        if dsm.rank() == 0 {
            loop {
                let v = u64::from_le_bytes(dsm.read(ctx, 0, 8).try_into().unwrap());
                if v == RANKS as u64 * PER_RANK {
                    // Verify every rank's last private word too.
                    let mut all = Vec::new();
                    for r in 0..RANKS {
                        let w = u64::from_le_bytes(
                            dsm.read(ctx, 8 + 8 * r as u64, 8).try_into().unwrap(),
                        );
                        all.push(w);
                    }
                    return all;
                }
                ctx.sleep(simkit::SimDuration::from_micros(500));
            }
        }
        Vec::new()
    });
    run_world(&sim);
    let words = handles[0].expect_result();
    assert_eq!(words, vec![PER_RANK; 6]);
}

#[test]
fn disjoint_pages_do_not_interfere() {
    // Each rank works on its own page: after warm-up, every access is a
    // local hit and no pages move.
    const RANKS: usize = 4;
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), RANKS, 4);
    let handles = Dsm::spawn_world(&cluster, |ctx, dsm| {
        // Each rank uses a page IT is the home of: zero faults at all.
        let page = dsm.rank() as u64; // home_of(page) == rank for page < ranks
        let addr = page * PAGE_SIZE;
        for i in 0..50u64 {
            dsm.write(ctx, addr, &i.to_le_bytes());
            let got = u64::from_le_bytes(dsm.read(ctx, addr, 8).try_into().unwrap());
            assert_eq!(got, i);
        }
        let s = dsm.stats();
        (s.faults, s.local_hits)
    });
    run_world(&sim);
    for h in handles {
        let (faults, hits) = h.expect_result();
        assert_eq!(faults, 0, "home pages must never fault");
        assert_eq!(hits, 100);
    }
}

#[test]
fn page_spanning_access_is_correct() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::mvia(), 2, 5);
    let handles = Dsm::spawn_world(&cluster, |ctx, dsm| {
        if dsm.rank() == 0 {
            // Straddle pages 1|2 with a recognizable pattern.
            let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
            dsm.write(ctx, 2 * PAGE_SIZE - 300, &data);
            true
        } else {
            let want: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
            loop {
                let got = dsm.read(ctx, 2 * PAGE_SIZE - 300, 600);
                if got == want {
                    return true;
                }
                ctx.sleep(simkit::SimDuration::from_micros(500));
            }
        }
    });
    run_world(&sim);
    for h in handles {
        assert!(h.expect_result());
    }
}

#[test]
fn stats_account_for_migrations() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 6);
    let handles = Dsm::spawn_world(&cluster, |ctx, dsm| {
        // Page 0 is homed at rank 0. Rank 1 pulls it, then rank 0
        // pulls it back: each side ships once.
        if dsm.rank() == 1 {
            dsm.write(ctx, 16, b"pull");
            // Stay alive until our pager has shipped the page back
            // (stats are shared with the pager, so we can observe it).
            while dsm.stats().pages_shipped == 0 {
                ctx.sleep(simkit::SimDuration::from_micros(300));
            }
        } else {
            // Wait until rank 1 took the page, then take it back.
            loop {
                ctx.sleep(simkit::SimDuration::from_micros(300));
                let s = dsm.stats();
                if s.pages_shipped >= 1 {
                    break;
                }
            }
            let _ = dsm.read(ctx, 16, 4);
        }
        dsm.stats()
    });
    run_world(&sim);
    let s0 = handles[0].expect_result();
    let s1 = handles[1].expect_result();
    assert!(
        s0.pages_shipped >= 1,
        "rank0 shipped page 0 to rank1: {s0:?}"
    );
    assert!(s1.pages_shipped >= 1, "rank1 shipped it back: {s1:?}");
    assert!(s0.faults >= 1 && s1.faults >= 1);
}
