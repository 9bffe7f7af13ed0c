//! X-FAULT: fault injection, VI error states, and recovery.
//!
//! The robustness extension of the suite: scripted fault windows
//! ([`fabric::FaultPlan`]) and firmware stalls are injected into otherwise
//! standard streams, and the tables report how each provider profile rides
//! them out — adaptive-RTO backoff across a link flap, goodput through a
//! degradation burst, doorbell-service stalls, and the full VIA error-state
//! arc: retry exhaustion → VI Error → descriptor flush → disconnect →
//! reconnect → resume.
//!
//! Every scenario streams through the harness's windowed sender
//! ([`Stream`]); the reconnect row's arc is the harness's ([`standby`],
//! [`reconnect_resend`]), the same one every X-CHAOS episode that fails
//! runs.
//!
//! Everything is discrete-event deterministic: the same seed produces the
//! same fault realization, byte for byte, at any worker count.

use fabric::NodeId;
use simkit::{ProcessCtx, SimDuration, SimTime};
use via::{registered, Profile, Reliability, ViaError};

use crate::harness::{
    reconnect_resend, rel_short, standby, DtConfig, Endpoint, Pair, Stream, RECONNECT,
};
use crate::report::Table;

const MSG_SIZE: u64 = 4096;

/// Stream config shared by the fault scenarios: Reliable Delivery where the
/// profile has it (so recovery is observable), plain Unreliable otherwise.
fn stream_cfg(profile: Profile, total: u32) -> DtConfig {
    let reliability = if profile.supports_reliability(Reliability::ReliableDelivery) {
        Reliability::ReliableDelivery
    } else {
        Reliability::Unreliable
    };
    DtConfig {
        iters: total,
        warmup: 0,
        reliability,
        queue_depth: 8,
        ..DtConfig::base(profile, MSG_SIZE)
    }
}

/// Fault onset relative to the stream's first send. VI setup and the
/// connection handshake consume a profile-dependent stretch of sim time,
/// so fault windows are scheduled from inside the workload — this offset
/// past the post-handshake barrier — rather than at absolute timestamps.
const FAULT_OFFSET: SimDuration = SimDuration::from_micros(200);

/// One client→server stream with a passive receiver: the server pre-posts
/// a descriptor per message and returns, so nothing on the receive side
/// gates the sender and delivery is read back from the provider counters.
/// `script` runs on the client right after the start barrier (it installs
/// the scenario's faults, timed off the stream start it receives) and
/// returns the instant to watch for recovery. Returns (elapsed, first
/// completion at-or-after the watch point, the watch point).
fn passive_stream<F>(
    pair: &Pair,
    cfg: &DtConfig,
    script: F,
) -> (SimDuration, Option<SimTime>, SimTime)
where
    F: FnOnce(&Endpoint, SimTime) -> SimTime + Send + 'static,
{
    let total = cfg.iters as u64;
    let scfg = cfg.clone();
    let ccfg = cfg.clone();
    let (_, out) = pair.run(
        move |ctx, ep| {
            let cfg = scfg;
            let (buf, mh) = registered(ctx, &ep.provider, cfg.msg_size);
            for _ in 0..total {
                ep.vi
                    .post_recv(ctx, ep.split_desc(true, buf, mh, cfg.msg_size, 1))
                    .unwrap();
            }
            ep.sync(ctx);
            // Passive: completions accumulate unobserved; delivery is read
            // from the provider counters after the run.
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let (buf, mh) = registered(ctx, &ep.provider, cfg.msg_size);
            ep.sync(ctx);
            let t0 = ctx.now();
            let watch = script(&ep, t0);
            let mut s = Stream::new(&ep.vi, cfg.queue_depth, cfg.wait);
            s.watch(watch);
            for _ in 0..total {
                s.post(ctx, ep.split_desc(false, buf, mh, cfg.msg_size, 1))
                    .expect("fault stream send");
            }
            s.drain(ctx);
            (ctx.now() - t0, s.first_after_watch, watch)
        },
    );
    out
}

/// Recovery from a link flap: the server's link goes down mid-stream for
/// `flap` microseconds; in-flight messages retransmit with exponential
/// backoff and the stream resumes once the link returns. Reported recovery
/// latency is the gap between the link coming back and the first send
/// completion after it — i.e. how long the backed-off retry timers leave
/// the link idle after repair.
pub fn recovery_table(profiles: &[Profile], flaps_us: &[u64]) -> Table {
    let mut t = Table::new(
        format!("X-FAULT: link-flap recovery ({MSG_SIZE} B stream)"),
        vec![
            "recovery latency (us)".to_string(),
            "elapsed (us)".to_string(),
            "retransmissions".to_string(),
        ],
    );
    for profile in profiles {
        if !profile.supports_reliability(Reliability::ReliableDelivery) {
            // Nothing retransmits on an unreliable-only provider; a flap
            // just drops the frames, which the burst table already shows.
            continue;
        }
        for &flap in flaps_us {
            let cfg = stream_cfg(profile.clone(), 64);
            let pair = Pair::new(&cfg);
            let san = pair.san();
            let (elapsed, first_after, flap_end) = passive_stream(&pair, &cfg, move |_ep, t0| {
                if flap == 0 {
                    return SimTime::ZERO;
                }
                let at = t0 + FAULT_OFFSET;
                let d = SimDuration::from_micros(flap);
                san.install_faults(&fabric::FaultPlan::new().link_flap(NodeId(1), at, d));
                at + d
            });
            let recovery = match (flap, first_after) {
                (0, _) => 0.0,
                (_, Some(at)) => at.saturating_duration_since(flap_end).as_micros_f64(),
                (_, None) => f64::NAN,
            };
            t.push(
                format!("{} flap {flap}us", profile.name),
                vec![
                    recovery,
                    elapsed.as_micros_f64(),
                    pair.provider_stats(0).retransmissions as f64,
                ],
            );
        }
    }
    t
}

/// Goodput through a degradation burst: for 3 ms mid-stream the server's
/// link drops 30% of frames and adds 5 us per traversal. Reliable profiles
/// retransmit through it; unreliable ones simply lose the messages, which
/// the delivered column makes visible.
pub fn burst_goodput_table(profiles: &[Profile]) -> Table {
    let mut t = Table::new(
        format!("X-FAULT: degradation burst ({MSG_SIZE} B stream)"),
        vec![
            "goodput (MB/s)".to_string(),
            "retransmissions".to_string(),
            "delivered (%)".to_string(),
        ],
    );
    for profile in profiles {
        let total = 96u32;
        let cfg = stream_cfg(profile.clone(), total);
        let pair = Pair::new(&cfg);
        let san = pair.san();
        let (elapsed, _, _) = passive_stream(&pair, &cfg, move |_ep, t0| {
            san.install_faults(&fabric::FaultPlan::new().degrade(
                NodeId(1),
                t0 + FAULT_OFFSET,
                SimDuration::from_micros(3_000),
                SimDuration::from_micros(5),
                0.3,
            ));
            SimTime::ZERO
        });
        let delivered = pair.provider_stats(1).msgs_delivered;
        t.push(
            format!("{} ({})", profile.name, rel_short(cfg.reliability)),
            vec![
                simkit::megabytes_per_second(MSG_SIZE * delivered, elapsed),
                pair.provider_stats(0).retransmissions as f64,
                delivered as f64 * 100.0 / total as f64,
            ],
        );
    }
    t
}

/// Firmware stall: the sender NIC's descriptor scheduler services nothing
/// for 2 ms mid-stream. Doorbell-driven providers (FIFO and polling
/// firmware alike) stall for the window — long enough that retransmit
/// timers fire into the stalled NIC — while the host-emulated path, which
/// has no device-side scheduler, is immune.
pub fn stall_table(profiles: &[Profile]) -> Table {
    let mut t = Table::new(
        format!("X-FAULT: 2 ms firmware stall ({MSG_SIZE} B stream)"),
        vec![
            "elapsed (us)".to_string(),
            "baseline (us)".to_string(),
            "retransmissions".to_string(),
        ],
    );
    for profile in profiles {
        let run = |stalled: bool| {
            let cfg = stream_cfg(profile.clone(), 64);
            let pair = Pair::new(&cfg);
            let (elapsed, _, _) = passive_stream(&pair, &cfg, move |ep, t0| {
                if stalled {
                    ep.provider
                        .stall_firmware(t0 + FAULT_OFFSET, SimDuration::from_micros(2_000));
                }
                SimTime::ZERO
            });
            (elapsed, pair.provider_stats(0).retransmissions)
        };
        let (base, _) = run(false);
        let (elapsed, retx) = run(true);
        t.push(
            profile.name.to_string(),
            vec![elapsed.as_micros_f64(), base.as_micros_f64(), retx as f64],
        );
    }
    t
}

/// What the error-state arc of [`error_reconnect_run`] observed.
#[derive(Clone, Copy, Debug)]
pub struct ReconnectReport {
    /// Sends the client posted before the VI failed.
    pub posted_before: u64,
    /// Of those, completed successfully before the failure.
    pub completed_before: u64,
    /// Of those, flushed to the CQ with `ConnectionLost` by the VI error
    /// state machine. Every posted send is in exactly one of these bins.
    pub flushed: u64,
    /// Messages re-sent (all successfully) over the re-established
    /// connection.
    pub resent: u64,
    /// The client provider's connection-failure counter.
    pub conn_failures: u64,
    /// Messages the server placed in memory, across both connections. At
    /// least the stream total; higher when a message delivered just before
    /// the outage lost its ACK to it and was re-sent.
    pub server_received: u64,
    /// Link repair to first resumed completion, in microseconds.
    pub recovery_us: f64,
}

const RECONNECT_TOTAL: u64 = 48;
const RECONNECT_FLAP: SimDuration = SimDuration::from_micros(20_000);

/// The full VIA error-state arc, end to end: a 20 ms outage of the
/// client's link exhausts the (deliberately short) retry budget, the VI
/// enters the Error state and flushes every outstanding descriptor with
/// `ConnectionLost`, the application disconnects — the only exit the VIA
/// spec allows — waits out the outage, reconnects to a second
/// discriminator the server listens on, and re-sends everything that never
/// completed.
pub fn error_reconnect_run(profile: Profile) -> ReconnectReport {
    let mut p = profile;
    assert!(
        p.supports_reliability(Reliability::ReliableDelivery),
        "the error arc needs a reliable mode"
    );
    // A short retry budget keeps exhaustion well inside the outage.
    p.data.retransmit_timeout = SimDuration::from_micros(400);
    p.data.max_rto = SimDuration::from_micros(4_000);
    p.data.max_retries = 3;
    let cfg = DtConfig {
        iters: RECONNECT_TOTAL as u32,
        warmup: 0,
        reliability: Reliability::ReliableDelivery,
        queue_depth: 8,
        ..DtConfig::base(p, MSG_SIZE)
    };
    let pair = Pair::new(&cfg);
    let san = pair.san();
    let ccfg = cfg.clone();
    let (_, mut report) = pair.run(
        move |ctx, ep| {
            let (vi2, posted) = standby(ctx, &ep, cfg.reliability, RECONNECT_TOTAL, MSG_SIZE);
            assert_eq!(
                posted,
                2 * RECONNECT_TOTAL,
                "a receive per message on both VIs"
            );
            ep.sync(ctx);
            // Blocks here through the outage; returns once the client's
            // reconnect handshake lands. Deliveries on either VI complete
            // into their work queues unobserved.
            ep.provider
                .accept(ctx, &vi2, RECONNECT)
                .expect("reconnect accept");
        },
        move |ctx, ep| {
            let cfg = ccfg;
            let (buf, mh) = registered(ctx, &ep.provider, MSG_SIZE);
            ep.sync(ctx);
            // Cut the client's own link shortly into the stream, long
            // enough that the shortened retry budget exhausts mid-outage.
            let flap_at = ctx.now() + SimDuration::from_micros(50);
            san.install_faults(&fabric::FaultPlan::new().link_flap(
                NodeId(0),
                flap_at,
                RECONNECT_FLAP,
            ));
            let flap_end = flap_at + RECONNECT_FLAP;
            let mut s = Stream::new(&ep.vi, cfg.queue_depth, cfg.wait).tolerant();
            let mut send = |ctx: &mut ProcessCtx, s: &mut Stream| {
                match s.post(ctx, ep.split_desc(false, buf, mh, MSG_SIZE, 1)) {
                    Ok(()) => true,
                    // The VI went into Error between completions: new work
                    // is refused until disconnect + reconnect.
                    Err(ViaError::InvalidState) => false,
                    Err(e) => panic!("post_send: {e:?}"),
                }
            };
            for _ in 0..RECONNECT_TOTAL {
                if !send(ctx, &mut s) {
                    break;
                }
            }
            // The error flush completes every outstanding descriptor.
            s.drain(ctx);
            assert_eq!(s.conn_lost, s.errored, "only the error flush fails a send");
            assert!(
                s.errored > 0 || s.posted < RECONNECT_TOTAL,
                "the outage should have failed the connection"
            );
            let (posted_before, completed_before, flushed) = (s.posted, s.ok, s.errored);
            // Sit out the rest of the scheduled outage before redialing.
            let resume = flap_end + SimDuration::from_micros(100);
            let clean = reconnect_resend(ctx, &ep, &mut s, resume, RECONNECT_TOTAL, &mut send);
            assert!(clean, "every resent message must complete");
            ReconnectReport {
                posted_before,
                completed_before,
                flushed,
                resent: RECONNECT_TOTAL - completed_before,
                conn_failures: 0, // filled in from the provider below
                server_received: 0,
                recovery_us: s
                    .first_after_watch
                    .expect("something was resent")
                    .saturating_duration_since(flap_end)
                    .as_micros_f64(),
            }
        },
    );
    report.conn_failures = pair.provider_stats(0).conn_failures;
    report.server_received = pair.provider_stats(1).msgs_delivered;
    report
}

/// The error-reconnect arc as a table row.
pub fn reconnect_table(profile: Profile) -> Table {
    let name = profile.name;
    let mut t = Table::new(
        format!("X-FAULT: retry exhaustion, VI error state & reconnect ({MSG_SIZE} B)"),
        vec![
            "completed pre-fault".to_string(),
            "flushed (ConnectionLost)".to_string(),
            "resent".to_string(),
            "conn failures".to_string(),
            "server received".to_string(),
            "recovery (us)".to_string(),
        ],
    );
    let r = error_reconnect_run(profile);
    t.push(
        format!("{name} flap 20ms"),
        vec![
            r.completed_before as f64,
            r.flushed as f64,
            r.resent as f64,
            r.conn_failures as f64,
            r.server_received as f64,
            r.recovery_us,
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_flap_inflates_elapsed_and_forces_retransmissions() {
        let t = recovery_table(&[Profile::clan()], &[0, 2_000]);
        let base = t.cell("cLAN flap 0us", "elapsed (us)").unwrap();
        let flapped = t.cell("cLAN flap 2000us", "elapsed (us)").unwrap();
        assert!(flapped > base, "flap must cost time: {flapped} !> {base}");
        assert!(t.cell("cLAN flap 2000us", "retransmissions").unwrap() > 0.0);
        assert_eq!(t.cell("cLAN flap 0us", "retransmissions").unwrap(), 0.0);
    }

    #[test]
    fn degradation_burst_loses_unreliable_messages_but_not_reliable_ones() {
        let t = burst_goodput_table(&[Profile::bvia(), Profile::clan()]);
        let ud = t.cell("BVIA (UD)", "delivered (%)").unwrap();
        let rd = t.cell("cLAN (RD)", "delivered (%)").unwrap();
        assert_eq!(rd, 100.0, "reliable delivery must recover every loss");
        assert!(ud < 100.0, "a 30% burst must cost an unreliable stream");
    }

    #[test]
    fn firmware_stall_spares_only_the_host_emulated_path() {
        let t = stall_table(&[Profile::mvia(), Profile::clan()]);
        let mvia_base = t.cell("M-VIA", "baseline (us)").unwrap();
        let mvia_stall = t.cell("M-VIA", "elapsed (us)").unwrap();
        assert_eq!(
            mvia_base, mvia_stall,
            "no device-side scheduler, nothing to stall"
        );
        let clan_base = t.cell("cLAN", "baseline (us)").unwrap();
        let clan_stall = t.cell("cLAN", "elapsed (us)").unwrap();
        assert!(
            clan_stall - clan_base >= 1_500.0,
            "a 2 ms stall must surface: {clan_stall} vs {clan_base}"
        );
    }

    #[test]
    fn error_arc_accounts_for_every_descriptor() {
        let r = error_reconnect_run(Profile::clan());
        // Every posted send is either completed or flushed as an error —
        // none vanish.
        assert_eq!(r.completed_before + r.flushed, r.posted_before);
        assert!(r.flushed > 0, "the outage must flush in-flight sends");
        assert_eq!(r.conn_failures, 1);
        assert_eq!(r.resent, RECONNECT_TOTAL - r.completed_before);
        assert!(r.server_received >= RECONNECT_TOTAL);
        assert!(r.recovery_us > 0.0);
    }
}
