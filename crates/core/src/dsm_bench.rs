//! Distributed-shared-memory benchmark (the paper's §5 names the DSM
//! model; its authors' own reference \[7\] — TreadMarks over VIA on Myrinet
//! and Gigabit Ethernet — is precisely this study): what does a page
//! fault cost on each VIA implementation, and how fast can ownership of a
//! hot page bounce between two ranks?

use dsm::{run_world, Dsm, PAGE_SIZE};
use simkit::Sim;
use via::{Cluster, Profile};

use crate::harness::finish_world;
use crate::report::Table;
use crate::sweep::{Curve, Sweep};

/// Mean time (us) for one page-ownership round trip: two ranks alternately
/// write the same page, so every access migrates it (the DSM analogue of
/// the latency ping-pong).
pub fn page_pingpong_us(profile: Profile, rounds: u64, seed: u64) -> f64 {
    let cluster = Cluster::new(Sim::new(), profile, 2, seed);
    let handles = Dsm::spawn_world(&cluster, move |ctx, dsm| {
        // Strict alternation through a turn word on the hot page:
        // rank r writes when counter % 2 == r.
        let me = dsm.rank() as u64;
        loop {
            let mut advanced = false;
            let mut done = false;
            dsm.update(ctx, 0, 8, |bytes| {
                let v = u64::from_le_bytes(bytes.try_into().unwrap());
                if v >= 2 * rounds {
                    done = true;
                } else if v % 2 == me {
                    bytes.copy_from_slice(&(v + 1).to_le_bytes());
                    advanced = true;
                }
            });
            if done {
                break;
            }
            if !advanced {
                // Not our turn yet: the page will bounce back.
                ctx.sleep(simkit::SimDuration::from_micros(5));
            }
        }
        (ctx.now(), dsm.stats())
    });
    run_world(cluster.sim());
    let (end0, s0) = handles[0].expect_result();
    let (_, s1) = handles[1].expect_result();
    finish_world(&cluster, format_args!("dsm page ping-pong, seed {seed}"));
    let total_migrations = s0.pages_shipped + s1.pages_shipped;
    // Time per migration over the whole run (start-up amortized away by
    // the round count).
    end0.as_micros_f64() / total_migrations.max(1) as f64
}

/// Page-migration cost per profile.
pub fn migration_table(profiles: &[Profile]) -> Table {
    let mut t = Table::new(
        "DSM: hot-page migration cost (us per ownership transfer)",
        vec!["us/migration".to_string()],
    );
    for p in profiles {
        t.push(p.name, vec![page_pingpong_us(p.clone(), 40, 7)]);
    }
    t
}

/// False sharing: two ranks write *disjoint words* that share one page vs.
/// words on separate pages — the page-granularity penalty every DSM paper
/// warns about, measured on the simulated stack.
pub fn false_sharing_sweep(profile: Profile) -> Sweep {
    let mut sweep = Sweep::new(
        format!("DSM: false sharing on {} (50 writes/rank)", profile.name),
        "layout (0 = same page, 1 = separate pages)",
        "elapsed (us)",
    );
    sweep.push(Curve::new(profile.name, &[0usize, 1], move |layout| {
        false_sharing_us(profile.clone(), layout == 1)
    }));
    sweep
}

/// Slowest rank's time (us) for 50 writes to its own word, the two ranks'
/// words on one page or on `separate` pages.
fn false_sharing_us(profile: Profile, separate: bool) -> f64 {
    let cluster = Cluster::new(Sim::new(), profile, 2, 9);
    let handles = Dsm::spawn_world(&cluster, move |ctx, dsm| {
        let addr = if separate {
            dsm.rank() as u64 * PAGE_SIZE
        } else {
            dsm.rank() as u64 * 64 // both words on page 0
        };
        let t0 = ctx.now();
        for i in 0..50u64 {
            dsm.write(ctx, addr, &i.to_le_bytes());
            // A little think time between writes so the two ranks
            // genuinely interleave (same pause in both layouts).
            ctx.sleep(simkit::SimDuration::from_micros(10));
        }
        (ctx.now() - t0).as_micros_f64()
    });
    run_world(cluster.sim());
    let slowest = handles
        .into_iter()
        .map(|h| h.expect_result())
        .fold(0.0f64, f64::max);
    finish_world(
        &cluster,
        format_args!("dsm false sharing, separate={separate}"),
    );
    slowest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_cost_orders_like_base_latency() {
        // A page migration is a request + a 4 KiB page transfer: the
        // profiles must order the same way the base benchmarks do.
        let t = migration_table(&Profile::paper_trio());
        let m = t.cell("M-VIA", "us/migration").unwrap();
        let b = t.cell("BVIA", "us/migration").unwrap();
        let c = t.cell("cLAN", "us/migration").unwrap();
        assert!(c < b && c < m, "cLAN must migrate fastest: {c} vs {b}/{m}");
        for v in [m, b, c] {
            assert!((50.0..5_000.0).contains(&v), "implausible cost {v}");
        }
    }

    #[test]
    fn false_sharing_costs_orders_of_magnitude() {
        let fig = false_sharing_sweep(Profile::clan()).figure();
        let s = &fig.series[0];
        let same = s.at(0.0).unwrap();
        let separate = s.at(1.0).unwrap();
        assert!(
            same > separate * 3.0,
            "false sharing must dominate: same-page {same} vs separate {separate}"
        );
    }
}
