//! Programming-model micro-benchmark: the get/put model (the paper's §5
//! names this as planned future work — "similar micro-benchmarks for
//! distributed memory programming model (MPI), distributed shared-memory,
//! and get/put" — so this module extends the suite in the direction the
//! authors announced).
//!
//! One-sided communication layers (ARMCI, SHMEM, later MPI-2 RMA) map
//! `put` to RDMA Write and `get` to RDMA Read where hardware allows,
//! falling back to send/receive emulation otherwise. The benchmark
//! measures both mappings, which tells a get/put-layer implementor exactly
//! what the fallback costs on a given VIA implementation.

use via::{registered, Descriptor, MemAttributes, MemHandle, Profile};

use crate::harness::{DtConfig, Pair, Stream};
use crate::sweep::{Curve, Sweep};

/// How the one-sided operation is realized on the VIA.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PutMapping {
    /// `put` = RDMA Write (needs provider support).
    RdmaWrite,
    /// `put` = send + pre-posted receive at the target ("active-message"
    /// emulation, the portable fallback).
    SendRecv,
}

/// Mean time (us) for one `put` of `size` bytes, including the initiator's
/// completion (so both mappings are compared at equal semantics).
pub fn put_latency(cfg: &DtConfig, mapping: PutMapping) -> f64 {
    let pair = Pair::new(cfg);
    let total = (cfg.warmup + cfg.iters) as u64;
    let slot = std::sync::Arc::new(pair.sim().confined(None::<(u64, MemHandle)>));
    let s2 = slot.clone();
    let scfg = cfg.clone();
    let ccfg = cfg.clone();
    let (_, per_op) = pair.run(
        move |ctx, ep| {
            let cfg = scfg;
            let (buf, mh) = registered(ctx, &ep.provider, cfg.msg_size.max(1));
            *s2.lock() = Some((buf, mh));
            match mapping {
                PutMapping::RdmaWrite => {
                    // True one-sided: the target does nothing per put. It
                    // just stays alive long enough (every put is acked at
                    // the data level only in reliable modes; here the
                    // initiator self-times with a trailing flush message,
                    // for which we post receives).
                    for _ in 0..total {
                        ep.vi.post_recv(ctx, Descriptor::recv()).unwrap();
                    }
                    ep.sync(ctx);
                    for _ in 0..total {
                        let c = ep.recv_one(ctx, cfg.wait);
                        assert!(c.is_ok());
                    }
                }
                PutMapping::SendRecv => {
                    // Emulation: a receive must be posted per put.
                    for _ in 0..(total.min(64)) {
                        ep.vi
                            .post_recv(
                                ctx,
                                Descriptor::recv().segment(buf, mh, cfg.msg_size as u32),
                            )
                            .unwrap();
                    }
                    ep.sync(ctx);
                    for i in 0..total {
                        let c = ep.recv_one(ctx, cfg.wait);
                        assert!(c.is_ok());
                        if i + 64 < total {
                            ep.vi
                                .post_recv(
                                    ctx,
                                    Descriptor::recv().segment(buf, mh, cfg.msg_size as u32),
                                )
                                .unwrap();
                        }
                    }
                }
            }
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let (buf, mh) = registered(ctx, &ep.provider, cfg.msg_size.max(1));
            ep.sync(ctx);
            let (rva, rmh) = slot.lock().expect("target published before barrier");
            let mut s = Stream::new(&ep.vi, 1, cfg.wait);
            let mut t0 = ctx.now();
            for i in 0..total {
                if i == cfg.warmup as u64 {
                    t0 = ctx.now();
                }
                let desc = match mapping {
                    PutMapping::RdmaWrite => Descriptor::rdma_write(rva, rmh)
                        .segment(buf, mh, cfg.msg_size as u32)
                        .immediate(i as u32),
                    PutMapping::SendRecv => {
                        Descriptor::send().segment(buf, mh, cfg.msg_size as u32)
                    }
                };
                s.post(ctx, desc).unwrap();
            }
            (ctx.now() - t0).as_micros_f64() / cfg.iters as f64
        },
    );
    per_op
}

/// `get` latency (us) via RDMA Read (requires a profile with
/// `supports_rdma_read`), including the data's arrival in local memory.
pub fn get_latency(cfg: &DtConfig) -> f64 {
    assert!(
        cfg.profile.supports_rdma_read,
        "get/RDMA-read needs a profile with supports_rdma_read"
    );
    let pair = Pair::new(cfg);
    let total = (cfg.warmup + cfg.iters) as u64;
    let slot = std::sync::Arc::new(pair.sim().confined(None::<(u64, MemHandle)>));
    let s2 = slot.clone();
    let scfg = cfg.clone();
    let ccfg = cfg.clone();
    let (_, per_op) = pair.run(
        move |ctx, ep| {
            let cfg = scfg;
            let buf = ep.provider.malloc(cfg.msg_size.max(1));
            let mh = ep
                .provider
                .register_mem(
                    ctx,
                    buf,
                    cfg.msg_size.max(1),
                    MemAttributes {
                        enable_rdma_write: false,
                        enable_rdma_read: true,
                    },
                )
                .unwrap();
            *s2.lock() = Some((buf, mh));
            ep.sync(ctx);
            // One-sided: the target's process is passive. Keep it parked
            // until the initiator finishes (a zero-byte send says "done").
            ep.vi.post_recv(ctx, Descriptor::recv()).unwrap();
            let c = ep.recv_one(ctx, cfg.wait);
            assert!(c.is_ok());
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let (buf, mh) = registered(ctx, &ep.provider, cfg.msg_size.max(1));
            ep.sync(ctx);
            let (rva, rmh) = slot.lock().expect("published");
            let mut s = Stream::new(&ep.vi, 1, cfg.wait);
            let mut t0 = ctx.now();
            for i in 0..total {
                if i == cfg.warmup as u64 {
                    t0 = ctx.now();
                }
                let desc = Descriptor::rdma_read(rva, rmh).segment(buf, mh, cfg.msg_size as u32);
                s.post(ctx, desc).unwrap();
            }
            let per = (ctx.now() - t0).as_micros_f64() / cfg.iters as f64;
            s.post(ctx, Descriptor::send()).expect("done message");
            per
        },
    );
    per_op
}

/// Put latency vs. size for both mappings (and `get` where supported):
/// per profile, a curve for each operation its hardware can map.
pub fn getput_sweep(profiles: &[Profile], sizes: &[u64]) -> Sweep {
    let mut sweep = Sweep::new(
        "Get/Put model: one-sided operation latency",
        "bytes",
        "per-op latency (us)",
    );
    for p in profiles {
        let profile = p.clone();
        let cfg = move |size| DtConfig {
            iters: 30,
            ..DtConfig::base(profile.clone(), size)
        };
        let mut curve = |op: &str, y: fn(&DtConfig) -> f64| {
            let cfg = cfg.clone();
            let name = format!("{} {op}", p.name);
            sweep.push(Curve::new(name, sizes, move |size| y(&cfg(size))));
        };
        if p.supports_rdma_write {
            curve("put/rdma", |cfg| put_latency(cfg, PutMapping::RdmaWrite));
        }
        curve("put/sendrecv", |cfg| put_latency(cfg, PutMapping::SendRecv));
        if p.supports_rdma_read {
            curve("get/rdma", get_latency);
        }
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_put_completes_locally_faster_than_emulation_waits() {
        // On an unreliable cLAN, an RDMA put's initiator-side completion is
        // local (wire hand-off) — same as a send — but the *target* does no
        // descriptor management. Rates should be close; the emulation must
        // not be faster.
        let cfg = DtConfig {
            iters: 20,
            ..DtConfig::base(Profile::clan(), 4096)
        };
        let rdma = put_latency(&cfg, PutMapping::RdmaWrite);
        let emul = put_latency(&cfg, PutMapping::SendRecv);
        assert!(rdma < emul * 1.3, "rdma {rdma} vs emulated {emul}");
    }

    #[test]
    fn get_round_trips_and_scales_with_size() {
        let mut p = Profile::custom();
        p.supports_rdma_read = true;
        let lat = |size| {
            let mut attrs_cfg = DtConfig {
                iters: 15,
                ..DtConfig::base(p.clone(), size)
            };
            attrs_cfg.profile = {
                let mut q = p.clone();
                q.supports_rdma_read = true;
                q
            };
            get_latency(&attrs_cfg)
        };
        let small = lat(64);
        let large = lat(16384);
        // A get is a request/response round trip: it must cost at least a
        // one-way latency more than nothing and grow with the payload.
        assert!(small > 10.0, "get 64B = {small}");
        assert!(large > small * 2.0, "get 16K = {large} vs 64B = {small}");
    }

    #[test]
    fn getput_figure_has_expected_series() {
        let fig = getput_sweep(&[Profile::clan()], &[256]).figure();
        assert!(fig.series("cLAN put/rdma").is_some());
        assert!(fig.series("cLAN put/sendrecv").is_some());
        assert!(
            fig.series("cLAN get/rdma").is_none(),
            "cLAN has no RDMA read"
        );
    }
}
