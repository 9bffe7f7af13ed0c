//! X-CHAOS: seeded chaos episodes with conservation-invariant oracles.
//!
//! Each episode composes a randomized provider configuration (profile,
//! work-queue depth, credit budget, NIC transmit-ring size), a randomized
//! workload (message count, size, reliability level), and a randomized
//! [`fabric::FaultPlan`] — all drawn from one content-keyed RNG stream —
//! runs it to completion, and checks the conservation invariants the
//! engine must uphold no matter what the fabric did to it:
//!
//! * **descriptor conservation** — every posted send completes exactly
//!   once: successes plus error completions equal posts, nothing vanishes
//!   and nothing completes twice;
//! * **honest failure** — a truncated stream implies a recorded
//!   connection failure, never a silent stall;
//! * **recoverability** — a VI that failed is recoverable by the spec's
//!   one legal arc (disconnect → reconnect → resend) once the fault
//!   windows close.
//!
//! The stream is the harness's windowed sender ([`Stream`], tolerant of
//! failures) and the arc is the one X-FAULT's reconnect row runs
//! ([`standby`], [`reconnect_resend`]); what is this module's own is the
//! randomized draw, riding through `QueueFull` backpressure, and the
//! invariants above.
//!
//! On top of these, the episode's world ends like every suite world, in
//! [`via::Cluster::audit`] (via [`Pair::run`]): frames conserved, no
//! stranded descriptor, credit, CQ reference or NIC-ring entry on either
//! node, a balanced fuse ledger, and every fault drop attributed honestly.
//!
//! A violated invariant panics naming the episode (the audit names its
//! cluster seed), so the CI golden regeneration doubles as the chaos smoke
//! test. Episode seeds derive from [`BASE_SEED`] and the episode index
//! only, which keeps the table byte-identical at any worker count.

use std::sync::Arc;

use fabric::{FaultPlan, PortLimits, Topology};
use simkit::{ProcessCtx, SimBarrier, SimDuration, SimRng, WaitMode};
use via::{registered, Profile, Reliability, ViaError};

use crate::harness::{
    reconnect_resend, rel_short, standby, DtConfig, Pair, Stream, BASE_SEED, RECONNECT,
};
use crate::report::Table;

/// Episodes X-CHAOS runs (and CI replays as the chaos smoke).
pub const EPISODES: usize = 25;

/// Message sizes an episode draws from.
const MSG_SIZES: [u64; 5] = [64, 256, 1024, 4096, 8192];

/// Fault windows are placed inside this span past the stream start.
const FAULT_SPAN: SimDuration = SimDuration::from_micros(5_000);

/// Trunk joining the two switches of a multi-switch episode's dumbbell:
/// generous bandwidth and a wide MTU so every profile's frames fit.
fn chaos_trunk() -> fabric::LinkParams {
    fabric::LinkParams {
        bandwidth_bps: 1_000_000_000,
        propagation: SimDuration::from_nanos(600),
        frame_overhead_bytes: 8,
        mtu: 64 * 1024,
    }
}

/// What one chaos episode observed.
#[derive(Clone, Copy, Debug)]
pub struct EpisodeReport {
    /// Cluster-seed fingerprint recorded in the table (`seed % 1e6`).
    pub seed_fp: u64,
    /// Fault windows the episode's plan scheduled.
    pub faults: u64,
    /// Messages the workload intended to send.
    pub msgs: u64,
    /// Message size in bytes.
    pub bytes: u64,
    /// Sends actually posted (the stream truncates when the VI fails).
    pub posted: u64,
    /// Sends completed successfully, including any post-reconnect resends.
    pub completed: u64,
    /// Sends completed with an error status (flushed or rejected).
    pub errored: u64,
    /// The client provider's connection-failure counter.
    pub conn_failures: u64,
    /// Sends the credit ledger parked at least once.
    pub credit_stalls: u64,
    /// True when no failure occurred, or the reconnect arc re-delivered
    /// everything outstanding without a second failure.
    pub recovered: bool,
    /// Every invariant held (violations panic, so a surviving report is
    /// always `true`; the column keeps the verdict visible in the table).
    pub invariants_ok: bool,
}

/// Draw the episode's provider configuration. The retry budget is always
/// shortened so retry exhaustion fits inside an episode; the resource
/// knobs (credit budget, queue depth, NIC ring) shrink with some
/// probability so exhaustion semantics get exercised, not just fault
/// windows.
fn episode_profile(rng: &mut SimRng) -> (Profile, Reliability) {
    let mut p = match rng.below(3) {
        0 => Profile::mvia(),
        1 => Profile::bvia(),
        _ => Profile::clan(),
    };
    p.data.retransmit_timeout = SimDuration::from_micros(400);
    p.data.max_rto = SimDuration::from_micros(4_000);
    p.data.max_retries = 3;
    let reliability = p.reliability_levels[rng.below(p.reliability_levels.len() as u64) as usize];
    let shrink_credits = if reliability == Reliability::Unreliable {
        rng.chance(0.4)
    } else {
        // Credit flow only gates reliable sends, so lean into tiny
        // budgets when they can actually bite.
        rng.chance(0.6)
    };
    if shrink_credits {
        // A tiny initial budget forces parking until ACK-carried grants
        // arrive. Never zero: the first send must be able to leave, and
        // any parked send is then covered by an in-flight timer.
        p.credit_flow.initial = 2 + rng.below(4) as u32;
    }
    if rng.chance(0.3) {
        // Can undercut the message count: the receiver then can't post a
        // descriptor per message and reliable streams must fail honestly.
        p.max_queue_depth = 8 + rng.below(25) as usize;
    }
    if rng.chance(0.25) {
        p.nic_tx_ring = 4 + rng.below(13) as usize;
    }
    (p, reliability)
}

/// Run chaos episode `idx` and check every invariant (panicking on any
/// violation, with the episode parameters in the message).
pub fn run_episode(idx: usize) -> EpisodeReport {
    let mut rng = SimRng::derive(BASE_SEED, &format!("chaos-ep{idx:02}"));
    let cluster_seed = rng.next_u64();
    let (profile, reliability) = episode_profile(&mut rng);
    let msgs = 8 + rng.below(33);
    let size = MSG_SIZES[rng.below(MSG_SIZES.len() as u64) as usize];
    let queue_depth = 4 + rng.below(5) as usize;
    // Some episodes put the pair on a two-switch dumbbell, so the
    // randomized plan can draw switch-down / trunk-down windows and the
    // recovery arc runs over a fabric that reroutes (here: fail-stop and
    // heal — a dumbbell has no alternate path, the honest worst case).
    let topology = if rng.chance(0.3) {
        Some(Topology::dumbbell(2, chaos_trunk(), PortLimits::default()))
    } else {
        None
    };
    let cfg = DtConfig {
        iters: msgs as u32,
        warmup: 0,
        reliability,
        queue_depth,
        seed: cluster_seed,
        topology,
        ..DtConfig::base(profile, size)
    };
    let pair = Pair::new(&cfg);
    let san = pair.san();
    // The client decides after its stream whether the failure arc runs;
    // the server learns the verdict across a second barrier.
    let needs_reconnect = Arc::new(pair.sim().confined(false));
    let rendezvous = SimBarrier::new(pair.sim(), 2);
    let (flag_s, flag_c) = (needs_reconnect.clone(), needs_reconnect);
    let (barrier_s, barrier_c) = (rendezvous.clone(), rendezvous);
    let (_, out) = pair.run(
        move |ctx, ep| {
            let (vi2, _) = standby(ctx, &ep, reliability, msgs, size);
            ep.sync(ctx);
            barrier_s.wait(ctx);
            if *flag_s.lock() {
                ep.provider
                    .accept(ctx, &vi2, RECONNECT)
                    .expect("reconnect accept");
            }
        },
        move |ctx, ep| {
            let (buf, mh) = registered(ctx, &ep.provider, size);
            ep.sync(ctx);
            let t0 = ctx.now();
            // Compose the fault plan relative to the stream start (the
            // handshake consumed a profile-dependent stretch of sim time).
            let start = t0 + SimDuration::from_micros(100);
            // Multi-switch episodes draw from the full window pool,
            // including switch-down and trunk-down kinds.
            let plan = FaultPlan::randomized_topo(&mut rng, start, FAULT_SPAN, san.topology());
            let faults = plan.events().len() as u64;
            let plan_end = plan
                .events()
                .iter()
                .map(|w| w.at + w.duration)
                .max()
                .unwrap_or(t0);
            san.install_faults(&plan);
            let mut s = Stream::new(&ep.vi, queue_depth, WaitMode::Poll).tolerant();
            // Post one send, riding through backpressure. The bounded work
            // queue can refuse a post (`QueueFull`) even with every
            // completion drained: entries stay queued until the NIC's
            // transmit engine retires them, and a fault window slows that
            // engine down. Draining a completion (or idling when none is
            // outstanding) frees a slot. False when the VI refuses new
            // work outright because it entered the Error state.
            let mut send = |ctx: &mut ProcessCtx, s: &mut Stream| loop {
                match s.post(ctx, ep.split_desc(false, buf, mh, size, 1)) {
                    Ok(()) => return true,
                    Err(ViaError::QueueFull) if s.outstanding > 0 => s.wait_one(ctx),
                    Err(ViaError::QueueFull) => ctx.busy(SimDuration::from_micros(50)),
                    Err(ViaError::InvalidState) => return false,
                    Err(e) => panic!("chaos post_send: {e:?}"),
                }
            };
            for _ in 0..msgs {
                // A refused post means the VI failed between completions;
                // the flush below accounts for everything outstanding.
                if !send(ctx, &mut s) {
                    break;
                }
            }
            s.drain(ctx);
            let failed = s.conn_lost > 0 || s.posted < msgs;
            *flag_c.lock() = failed;
            barrier_c.wait(ctx);
            // Sit out every scheduled fault window before redialing. A
            // second failure (e.g. the fresh VI's receive queue is also too
            // shallow) is tolerated — it just isn't recovery.
            let resume = plan_end + SimDuration::from_micros(200);
            let recovered = !failed || reconnect_resend(ctx, &ep, &mut s, resume, msgs, &mut send);
            // Park the VI cleanly; legal from Connected and Error alike.
            let _ = ep.provider.disconnect(ctx, &ep.vi);
            (faults, s.posted, s.ok, s.errored, failed, recovered)
        },
    );
    let (faults, posted, completed, errored, failed, recovered) = out;
    let stats = pair.provider_stats(0);
    let tag = format!(
        "chaos ep{idx:02} ({}/{} {size}B x{msgs}, seed {cluster_seed})",
        cfg.profile.name,
        rel_short(reliability)
    );
    // Invariant: descriptor conservation — every posted send completed
    // exactly once, as a success or an error, nothing in between.
    assert_eq!(
        completed + errored,
        posted,
        "{tag}: {completed} ok + {errored} errored != {posted} posted"
    );
    // Invariant: honest failure — a truncated or errored stream must have
    // recorded a connection failure, never stalled silently.
    if failed {
        assert!(
            stats.conn_failures >= 1,
            "{tag}: stream failed but no connection failure was recorded"
        );
    }
    EpisodeReport {
        seed_fp: cluster_seed % 1_000_000,
        faults,
        msgs,
        bytes: size,
        posted,
        completed,
        errored,
        conn_failures: stats.conn_failures,
        credit_stalls: stats.credit_stalls,
        recovered,
        invariants_ok: true,
    }
}

fn table_shell() -> Table {
    Table::new(
        "X-CHAOS: randomized fault episodes & conservation invariants",
        vec![
            "seed".to_string(),
            "faults".to_string(),
            "msgs".to_string(),
            "bytes".to_string(),
            "posted".to_string(),
            "completed".to_string(),
            "errored".to_string(),
            "conn failures".to_string(),
            "credit stalls".to_string(),
            "recovered".to_string(),
            "invariants ok".to_string(),
        ],
    )
}

fn push_episode(t: &mut Table, idx: usize, r: &EpisodeReport) {
    t.push(
        format!("ep{idx:02}"),
        vec![
            r.seed_fp as f64,
            r.faults as f64,
            r.msgs as f64,
            r.bytes as f64,
            r.posted as f64,
            r.completed as f64,
            r.errored as f64,
            r.conn_failures as f64,
            r.credit_stalls as f64,
            if r.recovered { 1.0 } else { 0.0 },
            if r.invariants_ok { 1.0 } else { 0.0 },
        ],
    );
}

/// One episode as a single-row table slice (the parallel plan's job
/// granularity; same-column slices row-merge back in episode order).
pub fn episode_table(idx: usize) -> Table {
    let mut t = table_shell();
    push_episode(&mut t, idx, &run_episode(idx));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episodes_are_deterministic() {
        let a = episode_table(3);
        let b = episode_table(3);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.rows.len(), 1);
        assert_eq!(a.rows[0].0, "ep03");
    }

    #[test]
    fn an_episode_upholds_its_invariants() {
        // run_episode panics on any violation; a returned report passed.
        let r = run_episode(0);
        assert!(r.invariants_ok);
        assert_eq!(r.completed + r.errored, r.posted);
        assert!(r.msgs >= 8 && r.msgs <= 40);
    }

    #[test]
    fn serial_and_sliced_tables_agree() {
        let mut merged = episode_table(0);
        merged.merge_from(episode_table(1));
        let mut serial = table_shell();
        for idx in 0..2 {
            push_episode(&mut serial, idx, &run_episode(idx));
        }
        assert_eq!(merged.to_csv(), serial.to_csv());
    }
}
