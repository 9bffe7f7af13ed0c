//! Programming-model layer benchmark (extension in the paper's §5
//! direction — "micro-benchmarks ... for distributed memory programming
//! model (MPI)"): what does a message-passing layer cost over raw VIA, and
//! where should its eager/rendezvous threshold sit on each implementation?
//!
//! This is the question the paper says VIBe exists to answer for
//! "developers of programming model layers"; here the layer under test is
//! the workspace's own `mpl` crate, built on the same `via` API.

use mpl::{Mpl, MplConfig};
use simkit::Sim;
use via::{Cluster, Profile};

use crate::harness::{finish_world, paper_sizes, DtConfig};
use crate::sweep::{Curve, Metric, Sweep};

/// One-way latency (us) of an `mpl` ping-pong of `size` bytes.
pub fn layer_latency(profile: Profile, cfg: MplConfig, size: u64, iters: u32) -> f64 {
    let cluster = Cluster::new(Sim::new(), profile, 2, 0xBEEF);
    let handles = Mpl::spawn_world(&cluster, cfg, move |ctx, mut mpl| {
        let cap = size.max(1) + 64;
        let buf = mpl.malloc(cap);
        let mh = mpl.register(ctx, buf, cap);
        let peer = 1 - mpl.rank();
        mpl.barrier(ctx);
        let t0 = ctx.now();
        for _ in 0..iters {
            if mpl.rank() == 0 {
                mpl.send(ctx, peer, 5, buf, mh, size);
                mpl.recv(ctx, peer, 5, buf, mh, cap);
            } else {
                mpl.recv(ctx, peer, 5, buf, mh, cap);
                mpl.send(ctx, peer, 5, buf, mh, size);
            }
        }
        (ctx.now() - t0).as_micros_f64() / (2.0 * iters as f64)
    });
    cluster.sim().run_to_completion();
    let latency = handles[0].expect_result();
    finish_world(&cluster, format_args!("mpl ping-pong, {size} B"));
    latency
}

/// Layer vs. raw-VIA latency across message sizes, per profile: the
/// "what does your abstraction cost" figure.
pub fn overhead_sweep(profiles: &[Profile]) -> Sweep {
    let mut sweep = Sweep::new(
        "MPL: message-passing layer vs raw VIA latency",
        "bytes",
        Metric::Latency.y_label(),
    );
    for p in profiles {
        let (raw, layered) = (p.clone(), p.clone());
        sweep.push(Curve::dt(
            format!("{} raw", p.name),
            &paper_sizes(),
            Metric::Latency,
            move |size| DtConfig {
                iters: 20,
                ..DtConfig::base(raw.clone(), size)
            },
        ));
        sweep.push(Curve::new(
            format!("{} mpl", p.name),
            &paper_sizes(),
            move |size| layer_latency(layered.clone(), MplConfig::default(), size, 20),
        ));
    }
    sweep
}

/// Latency at a fixed size while sweeping the eager threshold across it:
/// the knob a layer implementor tunes with VIBe data.
pub fn threshold_sweep(profile: Profile, size: u64) -> Sweep {
    let mut sweep = Sweep::new(
        format!(
            "MPL: eager-threshold sweep around a {size} B message ({})",
            profile.name
        ),
        "eager threshold (bytes)",
        Metric::Latency.y_label(),
    );
    sweep.push(Curve::new(
        profile.name,
        &[1024u32, 2048, 4096, 8192, 16384, 32768],
        move |thr| {
            let cfg = MplConfig {
                eager_threshold: thr,
                ..Default::default()
            };
            layer_latency(profile.clone(), cfg, size, 20)
        },
    ));
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ping_pong;

    #[test]
    fn layer_costs_more_than_raw_for_eager_messages() {
        // The bounce copies and tag matching are not free.
        let raw = ping_pong(&DtConfig {
            iters: 16,
            ..DtConfig::base(Profile::clan(), 1024)
        })
        .latency_us;
        let layered = layer_latency(Profile::clan(), MplConfig::default(), 1024, 16);
        assert!(layered > raw, "layered {layered} !> raw {raw}");
        // ... but the overhead must stay modest (well under 2x).
        assert!(layered < raw * 2.0, "layered {layered} vs raw {raw}");
    }

    #[test]
    fn rendezvous_avoids_copies_for_large_messages() {
        // At 28 KiB the layer's rendezvous path is zero-copy on both
        // sides; its overhead over raw VIA must be a small constant (the
        // RTS/CTS handshake), not proportional to the size.
        let raw = ping_pong(&DtConfig {
            iters: 12,
            ..DtConfig::base(Profile::clan(), 28672)
        })
        .latency_us;
        let layered = layer_latency(Profile::clan(), MplConfig::default(), 28672, 12);
        let overhead = layered - raw;
        assert!(overhead > 0.0, "layered {layered} vs raw {raw}");
        assert!(
            overhead < 40.0,
            "rendezvous overhead should be a handshake, got {overhead} us"
        );
    }

    #[test]
    fn threshold_matters_where_fig5_says() {
        // On BVIA a 16 KiB message sent eagerly pays two copies but keeps
        // translation caches hot; rendezvous is zero-copy but touches
        // fresh user pages. The sweep must show a real difference.
        let fig = threshold_sweep(Profile::bvia(), 16384).figure();
        let s = &fig.series[0];
        let eager = s.at(32768.0).unwrap(); // threshold above size: eager
        let rendezvous = s.at(1024.0).unwrap(); // threshold below: rendezvous
        assert!(
            (eager - rendezvous).abs() > 5.0,
            "threshold choice must matter: eager {eager} vs rendezvous {rendezvous}"
        );
    }
}
