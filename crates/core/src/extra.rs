//! The §3.2.5 data-transfer micro-benchmarks, published in full only in
//! the companion technical report (OSU-CISRC-10/00-TR20): multiple data
//! segments (MDS), asynchronous message handling (ASY), RDMA operations,
//! sender pipeline length (PIP), maximum transfer unit (MTU), and
//! reliability levels (REL). The paper describes their design; we
//! reproduce the benchmarks and report our own numbers.

use via::{registered, Profile, Reliability};

use crate::harness::{
    bandwidth, ping_pong, ping_pong_on, rdma_write_ping, rel_short, BufferPool, DtConfig, Pair,
    Stream,
};
use crate::report::Table;
use crate::sweep::{Curve, Metric, Sweep};

// ---------------------------------------------------------------------
// MDS: multiple data segments.
// ---------------------------------------------------------------------

/// Segment counts the MDS benchmark sweeps.
pub fn segment_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16]
}

/// Latency vs. number of data segments at a fixed total size, per profile.
pub fn mds_sweep(profiles: &[Profile], msg_size: u64) -> Sweep {
    let mut sweep = Sweep::new(
        format!("MDS: latency vs data segments ({msg_size} B total)"),
        "data segments",
        Metric::Latency.y_label(),
    );
    for p in profiles {
        let profile = p.clone();
        sweep.push(Curve::dt(
            p.name,
            &segment_counts(),
            Metric::Latency,
            move |n| DtConfig {
                iters: 30,
                segments: n,
                ..DtConfig::base(profile.clone(), msg_size)
            },
        ));
    }
    sweep
}

// ---------------------------------------------------------------------
// ASY: asynchronous message handling — bursts of k pings answered by k
// pongs; per-message latency vs. burst size.
// ---------------------------------------------------------------------

/// Burst sizes the ASY benchmark sweeps.
pub fn burst_sizes() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32]
}

/// Per-message time (us) of a k-deep asynchronous burst exchange.
pub fn asy_burst_latency(cfg: &DtConfig, burst: usize) -> f64 {
    let pair = Pair::new(cfg);
    let total = (cfg.warmup + cfg.iters) as u64;
    let burst = burst as u64;
    let scfg = cfg.clone();
    let ccfg = cfg.clone();
    let (_, per_msg) = pair.run(
        move |ctx, ep| {
            let cfg = scfg;
            let mut pool = BufferPool::build(ctx, &ep.provider, 1, cfg.msg_size, 100);
            let (va, mh) = pool.pick(0);
            for _ in 0..burst {
                ep.vi
                    .post_recv(ctx, ep.split_desc(true, va, mh, cfg.msg_size, 1))
                    .unwrap();
            }
            ep.sync(ctx);
            for _round in 0..total {
                // Collect the whole burst, re-arming receives as we go.
                for _ in 0..burst {
                    let c = ep.recv_one(ctx, cfg.wait);
                    assert!(c.is_ok());
                    ep.vi
                        .post_recv(ctx, ep.split_desc(true, va, mh, cfg.msg_size, 1))
                        .unwrap();
                }
                // Echo the burst back.
                for _ in 0..burst {
                    ep.vi
                        .post_send(ctx, ep.split_desc(false, va, mh, cfg.msg_size, 1))
                        .unwrap();
                }
                for _ in 0..burst {
                    assert!(ep.vi.send_wait(ctx, cfg.wait).is_ok());
                }
            }
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let mut pool = BufferPool::build(ctx, &ep.provider, 1, cfg.msg_size, 100);
            let (va, mh) = pool.pick(0);
            ep.sync(ctx);
            let mut t0 = ctx.now();
            for round in 0..total {
                if round == cfg.warmup as u64 {
                    t0 = ctx.now();
                }
                for _ in 0..burst {
                    ep.vi
                        .post_recv(ctx, ep.split_desc(true, va, mh, cfg.msg_size, 1))
                        .unwrap();
                }
                for _ in 0..burst {
                    ep.vi
                        .post_send(ctx, ep.split_desc(false, va, mh, cfg.msg_size, 1))
                        .unwrap();
                }
                for _ in 0..burst {
                    let c = ep.recv_one(ctx, cfg.wait);
                    assert!(c.is_ok());
                }
                for _ in 0..burst {
                    assert!(ep.vi.send_wait(ctx, cfg.wait).is_ok());
                }
            }
            let elapsed = ctx.now() - t0;
            elapsed.as_micros_f64() / (2.0 * cfg.iters as f64 * burst as f64)
        },
    );
    per_msg
}

/// Per-message latency vs. burst size, per profile.
pub fn asy_sweep(profiles: &[Profile], msg_size: u64) -> Sweep {
    let mut sweep = Sweep::new(
        format!("ASY: per-message time vs burst size ({msg_size} B)"),
        "burst size",
        "per-message time (us)",
    );
    for p in profiles {
        let cfg = DtConfig {
            iters: 20,
            ..DtConfig::base(p.clone(), msg_size)
        };
        sweep.push(Curve::new(p.name, &burst_sizes(), move |k| {
            asy_burst_latency(&cfg, k)
        }));
    }
    sweep
}

// ---------------------------------------------------------------------
// RDMA: RDMA write vs send/receive.
// ---------------------------------------------------------------------

/// Latency of send/receive vs. RDMA write over message sizes, for the
/// profiles that implement RDMA write (M-VIA and cLAN in the paper); a
/// profile that does not contributes no curve.
pub fn rdma_sweep(profiles: &[Profile], sizes: &[u64]) -> Sweep {
    let mut sweep = Sweep::new(
        "RDMA: send/receive vs RDMA-write latency",
        "bytes",
        Metric::Latency.y_label(),
    );
    for p in profiles.iter().filter(|p| p.supports_rdma_write) {
        let profile = p.clone();
        let cfg = move |size| DtConfig {
            iters: 30,
            ..DtConfig::base(profile.clone(), size)
        };
        sweep.push(Curve::dt(
            format!("{} send", p.name),
            sizes,
            Metric::Latency,
            cfg.clone(),
        ));
        sweep.push(Curve::new(format!("{} rdma", p.name), sizes, move |size| {
            rdma_write_ping(&cfg(size)).latency_us
        }));
    }
    sweep
}

// ---------------------------------------------------------------------
// PIP: sender pipeline length.
// ---------------------------------------------------------------------

/// Pipeline depths the PIP benchmark sweeps.
pub fn pipeline_depths() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64]
}

/// Bandwidth vs. number of outstanding sends, per profile. Runs at the
/// strongest reliability level the profile supports: under Reliable
/// Delivery a send only completes on the remote NIC's ACK, so the pipeline
/// depth directly bounds the in-flight window — which is the effect this
/// benchmark isolates. (On Unreliable connections a send completes at
/// local wire hand-off and the curve is nearly flat.)
pub fn pip_sweep(profiles: &[Profile], msg_size: u64) -> Sweep {
    let mut sweep = Sweep::new(
        format!("PIP: bandwidth vs sender pipeline length ({msg_size} B)"),
        "outstanding sends",
        Metric::Bandwidth.y_label(),
    );
    for p in profiles {
        let level = if p.supports_reliability(Reliability::ReliableDelivery) {
            Reliability::ReliableDelivery
        } else {
            Reliability::Unreliable
        };
        let profile = p.clone();
        sweep.push(Curve::dt(
            format!("{} ({})", p.name, rel_short(level)),
            &pipeline_depths(),
            Metric::Bandwidth,
            move |d| DtConfig {
                iters: 256,
                queue_depth: d,
                reliability: level,
                ..DtConfig::base(profile.clone(), msg_size)
            },
        ));
    }
    sweep
}

// ---------------------------------------------------------------------
// MTU: maximum transfer unit.
// ---------------------------------------------------------------------

/// Fragment sizes the MTU benchmark sweeps (bounded by the fabric MTU).
pub fn mtu_values(p: &Profile) -> Vec<u32> {
    [512u32, 1024, 2048, 4096, 8192, 16384]
        .into_iter()
        .filter(|&m| m <= p.net.link.mtu)
        .collect()
}

/// Latency and bandwidth at a fixed message size while sweeping the
/// provider's wire fragmentation unit: two panels, two sweeps.
pub fn mtu_sweeps(profile: Profile, msg_size: u64) -> [Sweep; 2] {
    [(Metric::Latency, 30), (Metric::Bandwidth, 192)].map(|(metric, iters)| {
        let mut sweep = Sweep::new(
            format!(
                "{}: {} vs wire MTU ({msg_size} B message)",
                profile.name,
                metric.name()
            ),
            "wire MTU (bytes)",
            metric.y_label(),
        );
        let base = profile.clone();
        sweep.push(Curve::dt(
            profile.name,
            &mtu_values(&profile),
            metric,
            move |mtu| {
                let mut p = base.clone();
                p.wire_mtu = mtu;
                DtConfig {
                    iters,
                    ..DtConfig::base(p, msg_size)
                }
            },
        ));
        sweep
    })
}

// ---------------------------------------------------------------------
// REL: reliability levels.
// ---------------------------------------------------------------------

/// Latency/bandwidth across the reliability levels a profile supports
/// (cLAN implements all three).
pub fn rel_table(profile: Profile, msg_size: u64) -> Table {
    let mut t = Table::new(
        format!("{}: reliability levels at {msg_size} B", profile.name),
        vec!["latency (us)".to_string(), "bandwidth (MB/s)".to_string()],
    );
    for (level, name) in [
        (Reliability::Unreliable, "Unreliable Delivery"),
        (Reliability::ReliableDelivery, "Reliable Delivery"),
        (Reliability::ReliableReception, "Reliable Reception"),
    ] {
        if !profile.supports_reliability(level) {
            continue;
        }
        let lat = ping_pong(&DtConfig {
            iters: 30,
            reliability: level,
            ..DtConfig::base(profile.clone(), msg_size)
        })
        .latency_us;
        let bw = bandwidth(&DtConfig {
            iters: 192,
            reliability: level,
            ..DtConfig::base(profile.clone(), msg_size)
        })
        .mbps;
        t.push(name, vec![lat, bw]);
    }
    t
}

/// Reliable delivery under injected frame loss: delivered-message goodput
/// and retransmission counts per loss rate (the failure-injection side of
/// the REL benchmark). Rows with independent (Bernoulli) loss plus one
/// Gilbert–Elliott burst row at a matched mean rate, so clustered and
/// independent loss of the same mean can be compared.
pub fn rel_loss_table(profile: Profile, msg_size: u64, loss_rates: &[f64]) -> Table {
    let mut t = Table::new(
        format!(
            "{}: Reliable Delivery under frame loss ({msg_size} B)",
            profile.name
        ),
        vec![
            "bandwidth (MB/s)".to_string(),
            "retransmissions".to_string(),
            "frames dropped".to_string(),
        ],
    );
    let mut one = |label: String, net: fabric::NetParams| {
        let mut p = profile.clone();
        p.net = net;
        let cfg = DtConfig {
            iters: 128,
            reliability: Reliability::ReliableDelivery,
            // Bound the in-flight window so a lost ACK cannot overrun the
            // receive window during recovery.
            queue_depth: 16,
            ..DtConfig::base(p, msg_size)
        };
        let pair = Pair::new(&cfg);
        let (retx, mbps) = run_lossy_bw(&pair, &cfg);
        // The fabric's own drop counter closes the loop on the injection:
        // every recovery the sender pays for traces back to a frame the
        // SAN actually discarded.
        let dropped = pair.san_stats().frames_dropped;
        t.push(label, vec![mbps, retx as f64, dropped as f64]);
    };
    for &loss in loss_rates {
        one(
            format!("loss {:.0}%", loss * 100.0),
            profile.net.with_loss(loss),
        );
    }
    if let Some(&max) = loss_rates.last() {
        if max > 0.0 {
            // Bursty loss with (approximately) the same long-run mean as
            // the worst Bernoulli row: mean = p_g2b/(p_g2b+p_b2g)*loss_bad.
            let burst = profile
                .net
                .with_burst_loss(max * 0.25 / 0.95, 0.25, 0.0, 0.95);
            one(
                format!("burst (mean {:.1}%)", burst.loss.mean_loss() * 100.0),
                burst,
            );
        }
    }
    t
}

fn run_lossy_bw(pair: &Pair, cfg: &DtConfig) -> (u64, f64) {
    // A plain bandwidth run, but we also read back the sender's
    // retransmission counter.
    use via::Descriptor;
    let total = (cfg.warmup + cfg.iters) as u64;
    let window: u64 = 64;
    let scfg = cfg.clone();
    let ccfg = cfg.clone();
    let (_, (mbps, retx)) = pair.run(
        move |ctx, ep| {
            let cfg = scfg;
            let mut pool = BufferPool::build(ctx, &ep.provider, 1, cfg.msg_size, 100);
            let (va, mh) = pool.pick(0);
            let (ack, ack_mh) = registered(ctx, &ep.provider, 16);
            for _ in 0..window.min(total) {
                ep.vi
                    .post_recv(ctx, ep.split_desc(true, va, mh, cfg.msg_size, 1))
                    .unwrap();
            }
            ep.sync(ctx);
            for i in 0..total {
                let c = ep.recv_one(ctx, cfg.wait);
                assert!(c.is_ok(), "lossy bw recv {i}: {:?}", c.status);
                if i + window < total {
                    ep.vi
                        .post_recv(ctx, ep.split_desc(true, va, mh, cfg.msg_size, 1))
                        .unwrap();
                }
            }
            Stream::new(&ep.vi, 1, cfg.wait)
                .post(ctx, Descriptor::send().segment(ack, ack_mh, 4))
                .expect("final ack");
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let mut pool = BufferPool::build(ctx, &ep.provider, 1, cfg.msg_size, 100);
            let (va, mh) = pool.pick(0);
            let (ack, ack_mh) = registered(ctx, &ep.provider, 16);
            ep.vi
                .post_recv(ctx, Descriptor::recv().segment(ack, ack_mh, 16))
                .unwrap();
            ep.sync(ctx);
            let t0 = ctx.now();
            let mut s = Stream::new(&ep.vi, cfg.queue_depth, cfg.wait);
            for _ in 0..total {
                s.post(ctx, ep.split_desc(false, va, mh, cfg.msg_size, 1))
                    .expect("lossy bw send");
            }
            s.drain(ctx);
            let c = ep.recv_one(ctx, cfg.wait);
            assert!(c.is_ok());
            let elapsed = ctx.now() - t0;
            let mbps = simkit::megabytes_per_second(cfg.msg_size * total, elapsed);
            (mbps, ep.provider.stats().retransmissions)
        },
    );
    (retx, mbps)
}

/// Tail latency of Reliable Delivery under frame loss: a deterministic
/// ping-pong has zero jitter, so *any* spread in the round-trip
/// distribution is loss recovery at work — retransmission timeouts
/// surface directly in the p99.
pub fn rel_tail_table(profile: Profile, msg_size: u64, loss_rates: &[f64]) -> Table {
    let mut t = Table::new(
        format!(
            "{}: RD one-way latency distribution under loss ({msg_size} B, us)",
            profile.name
        ),
        vec![
            "p50".to_string(),
            "p99".to_string(),
            "max".to_string(),
            "mean".to_string(),
            "retransmissions".to_string(),
            "frames dropped".to_string(),
            "conn failures".to_string(),
        ],
    );
    for &loss in loss_rates {
        let mut p = profile.clone();
        p.net = p.net.with_loss(loss);
        // A short retransmit timer keeps the tail measurable in one run.
        p.data.retransmit_timeout = simkit::SimDuration::from_micros(400);
        p.data.max_retries = 400;
        let cfg = DtConfig {
            iters: 300,
            warmup: 10,
            reliability: Reliability::ReliableDelivery,
            ..DtConfig::base(p, msg_size)
        };
        let pair = Pair::new(&cfg);
        let (_, samples) = ping_pong_on(&pair, &cfg, true);
        let (client, server) = (pair.provider_stats(0), pair.provider_stats(1));
        t.push(
            format!("loss {:.0}%", loss * 100.0),
            vec![
                samples.percentile(50.0),
                samples.percentile(99.0),
                samples.percentile(100.0),
                samples.mean(),
                (client.retransmissions + server.retransmissions) as f64,
                pair.san_stats().frames_dropped as f64,
                // The generous retry budget must ride out every loss rate
                // in the sweep without tripping the VI error state.
                (client.conn_failures + server.conn_failures) as f64,
            ],
        );
    }
    t
}
