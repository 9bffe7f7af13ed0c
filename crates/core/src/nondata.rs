//! Non-data-transfer micro-benchmarks (§3.1): the cost of creating and
//! destroying VIs, establishing and tearing down connections, registering
//! and deregistering memory, and creating/destroying completion queues.
//! Reproduces Table 1 and Figs. 1–2.

use fabric::NodeId;
use simkit::{Sim, SimDuration};
use via::{Cluster, Discriminator, MemAttributes, Profile, ViAttributes};

use crate::harness::finish_world;
use crate::report::{Series, Table};

/// Per-implementation non-data-transfer costs, in microseconds.
#[derive(Clone, Copy, Debug)]
pub struct NonDataCosts {
    /// `VipCreateVi`.
    pub create_vi_us: f64,
    /// `VipDestroyVi`.
    pub destroy_vi_us: f64,
    /// Client-observed connection establishment.
    pub connect_us: f64,
    /// Initiator-observed teardown.
    pub teardown_us: f64,
    /// `VipCQCreate`.
    pub create_cq_us: f64,
    /// `VipCQDestroy`.
    pub destroy_cq_us: f64,
}

/// Measure the six Table-1 operations for one profile. `iters` repetitions
/// are averaged (the simulation is deterministic, so few are needed).
pub fn measure(profile: Profile, iters: u32) -> NonDataCosts {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, 2, 0xADD);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    // Server side: accept/teardown peer for connection measurements.
    {
        let pb = pb.clone();
        sim.spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            for _ in 0..iters {
                pb.accept(ctx, &vi, Discriminator(1)).unwrap();
                // Wait for the client's disconnect before re-accepting.
                while matches!(vi.conn_state(), via::ConnState::Connected { .. }) {
                    ctx.sleep(SimDuration::from_micros(20));
                }
            }
        });
    }
    let ch = {
        let pa = pa.clone();
        sim.spawn("client", Some(pa.cpu()), move |ctx| {
            let us = |d: SimDuration| d.as_micros_f64();
            let mut create = 0.0;
            let mut destroy = 0.0;
            let mut connect = 0.0;
            let mut teardown = 0.0;
            let mut create_cq = 0.0;
            let mut destroy_cq = 0.0;
            for _ in 0..iters {
                let t = ctx.now();
                let vi = pa
                    .create_vi(ctx, ViAttributes::default(), None, None)
                    .unwrap();
                create += us(ctx.now() - t);

                let t = ctx.now();
                pa.connect(ctx, &vi, NodeId(1), Discriminator(1), None)
                    .unwrap();
                connect += us(ctx.now() - t);

                let t = ctx.now();
                pa.disconnect(ctx, &vi).unwrap();
                teardown += us(ctx.now() - t);

                let t = ctx.now();
                pa.destroy_vi(ctx, vi).unwrap();
                destroy += us(ctx.now() - t);

                let t = ctx.now();
                let cq = pa.create_cq(ctx, 64).unwrap();
                create_cq += us(ctx.now() - t);

                let t = ctx.now();
                pa.destroy_cq(ctx, cq).unwrap();
                destroy_cq += us(ctx.now() - t);

                // Give the server time to cycle back into accept.
                ctx.sleep(SimDuration::from_micros(200));
            }
            let n = iters as f64;
            NonDataCosts {
                create_vi_us: create / n,
                destroy_vi_us: destroy / n,
                connect_us: connect / n,
                teardown_us: teardown / n,
                create_cq_us: create_cq / n,
                destroy_cq_us: destroy_cq / n,
            }
        })
    };
    sim.run_to_completion();
    let costs = ch.expect_result();
    finish_world(&cluster, format_args!("Table 1 world"));
    costs
}

/// Regenerate Table 1 over the given profiles.
pub fn table1(profiles: &[Profile], iters: u32) -> Table {
    let mut t = Table::new(
        "Table 1: non-data transfer micro-benchmarks (us)",
        profiles.iter().map(|p| p.name.to_string()).collect(),
    );
    let costs: Vec<NonDataCosts> = profiles.iter().map(|p| measure(p.clone(), iters)).collect();
    t.push(
        "Creating VI",
        costs.iter().map(|c| c.create_vi_us).collect(),
    );
    t.push(
        "Destroying VI",
        costs.iter().map(|c| c.destroy_vi_us).collect(),
    );
    t.push(
        "Establishing Connection",
        costs.iter().map(|c| c.connect_us).collect(),
    );
    t.push(
        "Tearing Down Connection",
        costs.iter().map(|c| c.teardown_us).collect(),
    );
    t.push(
        "Creating CQ",
        costs.iter().map(|c| c.create_cq_us).collect(),
    );
    t.push(
        "Destroying CQ",
        costs.iter().map(|c| c.destroy_cq_us).collect(),
    );
    t
}

/// Buffer lengths swept by Figs. 1–2 (bytes).
pub fn registration_sizes() -> Vec<u64> {
    vec![4, 16, 64, 256, 1024, 4096, 12288, 20480, 28672]
}

/// Measure registration (Fig 1) and deregistration (Fig 2) cost, in
/// microseconds, over `sizes` for one profile.
pub fn registration_costs(profile: Profile, sizes: &[u64]) -> (Series, Series) {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile.clone(), 2, 0xF16);
    let pa = cluster.provider(0);
    let sizes: Vec<u64> = sizes.to_vec();
    let h = {
        let pa = pa.clone();
        sim.spawn("meas", Some(pa.cpu()), move |ctx| {
            let mut reg = Vec::new();
            let mut dereg = Vec::new();
            for &sz in &sizes {
                let va = pa.malloc(sz.max(1));
                let t = ctx.now();
                let mh = pa
                    .register_mem(ctx, va, sz.max(1), MemAttributes::default())
                    .unwrap();
                reg.push((sz as f64, (ctx.now() - t).as_micros_f64()));
                let t = ctx.now();
                pa.deregister_mem(ctx, mh).unwrap();
                dereg.push((sz as f64, (ctx.now() - t).as_micros_f64()));
            }
            (reg, dereg)
        })
    };
    sim.run_to_completion();
    let (reg, dereg) = h.expect_result();
    finish_world(&cluster, format_args!("registration world"));
    let mut s_reg = Series::new(profile.name);
    let mut s_dereg = Series::new(profile.name);
    s_reg.points = reg;
    s_dereg.points = dereg;
    (s_reg, s_dereg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deregistration_is_cheap_and_flat() {
        let (r, d) = registration_costs(Profile::bvia(), &[4, 28672, 32 * 1024 * 1024]);
        // Fig 2 / §4.2: deregistration stays small even for 32 MB regions.
        assert!(d.at(4.0).unwrap() < 16.0);
        assert!(d.last_y().unwrap() < 50.0);
        // ... and much cheaper than registration at the same size.
        assert!(d.at(28672.0).unwrap() < r.at(28672.0).unwrap());
    }
}
