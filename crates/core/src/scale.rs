//! Scalability micro-benchmark (extension): the paper's introduction names
//! "scalability studies" as a reason higher-layer developers need VIBe —
//! how many VI connections can one node serve, and what happens to
//! per-connection performance as the fan-in grows? This module measures an
//! N-client fan-in into one server: aggregate delivered bandwidth,
//! per-client fairness, and the server CPU cost per message.

use fabric::NodeId;
use simkit::{CpuMeter, Sim, SimBarrier, WaitMode};
use via::{registered, Cluster, Descriptor, Discriminator, Profile, QueueKind, ViAttributes};

use crate::harness::{finish_world, Stream};
use crate::sweep::{Curve, Sweep};

/// Result of one fan-in run.
#[derive(Clone, Debug)]
pub struct FanInResult {
    /// Number of clients.
    pub clients: usize,
    /// Aggregate delivered bandwidth at the server, MB/s.
    pub aggregate_mbps: f64,
    /// min/max per-client bandwidth ratio in `[0,1]` (1 = perfectly fair).
    pub fairness: f64,
    /// Server CPU busy time per delivered message, microseconds.
    pub server_us_per_msg: f64,
}

/// Run `clients` senders, each streaming `msgs` messages of `size` bytes
/// into one server that drains every connection through a single CQ.
pub fn fan_in(profile: Profile, clients: usize, size: u64, msgs: u64, seed: u64) -> FanInResult {
    assert!(clients >= 1);
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, clients + 1, seed);
    let server = cluster.provider(0);
    let start = SimBarrier::new(&sim, clients + 1);
    let window: u64 = 16; // receive window per connection
    let burst = window / 2; // credit quantum (application flow control)

    let server_task = {
        let server = server.clone();
        let start = start.clone();
        sim.spawn("server", Some(server.cpu()), move |ctx| {
            let cq = server.create_cq(ctx, 4096).expect("cq");
            let mut conns = Vec::new();
            for c in 0..clients {
                let vi = server
                    .create_vi(ctx, ViAttributes::default(), None, Some(&cq))
                    .unwrap();
                let (buf, mh) = registered(ctx, &server, size.max(1));
                let (ack, ack_mh) = registered(ctx, &server, 16);
                for _ in 0..window.min(msgs) {
                    vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, size as u32))
                        .unwrap();
                }
                server.accept(ctx, &vi, Discriminator(c as u64)).unwrap();
                conns.push((vi, buf, mh, ack, ack_mh, 0u64));
            }
            start.wait(ctx);
            let t0 = ctx.now();
            let meter = CpuMeter::start(ctx.sim(), server.cpu());
            let total = clients as u64 * msgs;
            let mut done = 0u64;
            while done < total {
                let (vi_id, kind) = cq.wait(ctx, WaitMode::Poll);
                if kind != QueueKind::Recv {
                    continue; // completions of our credit sends
                }
                let slot = conns
                    .iter_mut()
                    .find(|(vi, ..)| vi.id() == vi_id)
                    .expect("known VI");
                let (vi, buf, mh, ack, ack_mh, received) = slot;
                let comp = vi.recv_done(ctx).expect("cq signaled");
                assert!(comp.is_ok());
                *received += 1;
                done += 1;
                let next = *received + window;
                if next <= msgs {
                    vi.post_recv(ctx, Descriptor::recv().segment(*buf, *mh, size as u32))
                        .unwrap();
                }
                if *received % burst == 0 || *received == msgs {
                    // Credit / final ack for this connection.
                    vi.post_send(ctx, Descriptor::send().segment(*ack, *ack_mh, 4))
                        .unwrap();
                }
            }
            let elapsed = ctx.now() - t0;
            let usage = meter.stop(ctx.sim());
            // CQ overflow is attributed to the owning VI; the shared-CQ
            // fan-in is the densest CQ consumer in the suite, so pin the
            // per-VI ledger against the provider aggregate here.
            let per_vi: u64 = conns.iter().map(|(vi, ..)| vi.cq_overflows()).sum();
            assert_eq!(
                per_vi,
                server.stats().cq_overflows,
                "per-VI CQ overflow attribution must sum to the provider total"
            );
            (
                simkit::megabytes_per_second(size * total, elapsed),
                usage.busy.as_micros_f64() / total as f64,
            )
        })
    };

    let mut client_tasks = Vec::new();
    for c in 0..clients {
        let p = cluster.provider(c + 1);
        let start = start.clone();
        client_tasks.push(sim.spawn(format!("client{c}"), Some(p.cpu()), move |ctx| {
            let vi = p
                .create_vi(ctx, ViAttributes::default(), None, None)
                .unwrap();
            let (buf, mh) = registered(ctx, &p, size.max(1));
            let (ack, ack_mh) = registered(ctx, &p, 16);
            p.connect(ctx, &vi, NodeId(0), Discriminator(c as u64), None)
                .unwrap();
            for _ in 0..4u64.min(msgs / burst + 1) {
                vi.post_recv(ctx, Descriptor::recv().segment(ack, ack_mh, 16))
                    .unwrap();
            }
            start.wait(ctx);
            let t0 = ctx.now();
            let mut s = Stream::new(&vi, 1, WaitMode::Poll);
            let mut allowance = 2 * burst.min(msgs.max(1));
            let mut credits = 0u64;
            let credits_total = msgs.div_ceil(burst);
            for i in 0..msgs {
                if i % 4 == 0 {
                    while let Some(cmp) = vi.recv_done(ctx) {
                        assert!(cmp.is_ok());
                        credits += 1;
                        allowance += burst;
                        vi.post_recv(ctx, Descriptor::recv().segment(ack, ack_mh, 16))
                            .unwrap();
                    }
                }
                if i >= allowance {
                    let cmp = vi.recv_wait(ctx, WaitMode::Poll);
                    assert!(cmp.is_ok());
                    credits += 1;
                    allowance += burst;
                    vi.post_recv(ctx, Descriptor::recv().segment(ack, ack_mh, 16))
                        .unwrap();
                }
                s.post(ctx, Descriptor::send().segment(buf, mh, size as u32))
                    .unwrap();
            }
            // Drain the remaining credits (the last is the final ack).
            while credits < credits_total {
                let cmp = vi.recv_wait(ctx, WaitMode::Poll);
                assert!(cmp.is_ok());
                credits += 1;
            }
            let elapsed = ctx.now() - t0;
            simkit::megabytes_per_second(size * msgs, elapsed)
        }));
    }

    sim.run_to_completion();
    let (aggregate_mbps, server_us_per_msg) = server_task.expect_result();
    let per_client: Vec<f64> = client_tasks
        .into_iter()
        .map(|t| t.expect_result())
        .collect();
    finish_world(&cluster, format_args!("fan-in, seed {seed}"));
    let (min, max) = per_client
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    FanInResult {
        clients,
        aggregate_mbps,
        fairness: if max > 0.0 { min / max } else { 0.0 },
        server_us_per_msg,
    }
}

/// Aggregate fan-in bandwidth vs. client count, per profile.
pub fn fan_in_sweep(profiles: &[Profile], counts: &[usize], size: u64) -> Sweep {
    let mut sweep = Sweep::new(
        format!("Scalability: fan-in aggregate bandwidth ({size} B messages)"),
        "clients",
        "aggregate bandwidth (MB/s)",
    );
    for p in profiles {
        let profile = p.clone();
        sweep.push(Curve::new(p.name, counts, move |n| {
            fan_in(profile.clone(), n, size, 150, 0xFA + n as u64).aggregate_mbps
        }));
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_in_aggregate_exceeds_single_client() {
        let one = fan_in(Profile::clan(), 1, 4096, 120, 1);
        let four = fan_in(Profile::clan(), 4, 4096, 120, 1);
        assert!(
            four.aggregate_mbps > one.aggregate_mbps * 0.9,
            "4-client aggregate {} should not collapse below 1-client {}",
            four.aggregate_mbps,
            one.aggregate_mbps
        );
        // The server's downlink/CPU is shared: per-client rate must drop.
        assert!(four.aggregate_mbps < one.aggregate_mbps * 4.0);
    }

    #[test]
    fn fan_in_is_fair() {
        let r = fan_in(Profile::clan(), 4, 4096, 120, 2);
        assert!(
            r.fairness > 0.7,
            "clients should share within ~30%: fairness {}",
            r.fairness
        );
    }

    #[test]
    fn server_cost_per_message_is_stable() {
        let a = fan_in(Profile::clan(), 2, 1024, 120, 3);
        let b = fan_in(Profile::clan(), 8, 1024, 120, 3);
        // Per-message server work must not blow up with fan-in (the CQ is
        // exactly the mechanism that keeps it O(1) per message).
        assert!(
            b.server_us_per_msg < a.server_us_per_msg * 2.0,
            "2 clients: {} us/msg, 8 clients: {} us/msg",
            a.server_us_per_msg,
            b.server_us_per_msg
        );
    }

    #[test]
    fn bvia_firmware_scan_hurts_fanin_on_the_server_side() {
        // The server's NIC sends credits; with more VIs open its firmware
        // scans more per dispatch. BVIA aggregate should grow less than
        // cLAN's when going 1 -> 8 clients at small sizes.
        let b1 = fan_in(Profile::bvia(), 1, 256, 100, 4);
        let b8 = fan_in(Profile::bvia(), 8, 256, 100, 4);
        let c1 = fan_in(Profile::clan(), 1, 256, 100, 4);
        let c8 = fan_in(Profile::clan(), 8, 256, 100, 4);
        let bvia_scaling = b8.aggregate_mbps / b1.aggregate_mbps;
        let clan_scaling = c8.aggregate_mbps / c1.aggregate_mbps;
        assert!(
            clan_scaling > bvia_scaling,
            "cLAN x{clan_scaling:.2} should out-scale BVIA x{bvia_scaling:.2}"
        );
    }
}
