//! Scheduler event profile (extension X-SCHED): the simulator's own
//! per-class event ledger, surfaced as suite artifacts. Where every other
//! experiment reports what the modeled hardware did, this one reports what
//! the *scheduler* did to make it happen — how many events of each
//! [`EventClass`] fired, how many timers were cancelled before firing, and
//! how many cancelled entries the lazy reaper drained from the heap.
//!
//! The interesting invariant is the retransmission-timer ledger: on a
//! loss-free Reliable Delivery stream every timer the transport arms must
//! be *cancelled* by its ACK, never fired, so the "fired" column is an
//! alarm that goes off if dead timers ever leak back into the queue.

use simkit::{EventClass, SchedStats, WaitMode};
use via::{registered, Profile, Reliability};

use crate::harness::{DtConfig, Pair, Stream};
use crate::report::Table;

/// Stream `msgs` reliable messages across a two-node pair and return the
/// scheduler ledger plus the client provider's stats.
fn run_stream(mut profile: Profile, loss: f64, msgs: u32) -> (SchedStats, via::ProviderStats) {
    profile.net = profile.net.with_loss(loss);
    if loss > 0.0 {
        // Enough retry budget that the stream always completes.
        profile.data.max_retries = 400;
    }
    let mut cfg = DtConfig::base(profile, 1024);
    cfg.reliability = Reliability::ReliableDelivery;
    let pair = Pair::new(&cfg);
    let sim = pair.sim().clone();
    let (_, stats) = pair.run(
        move |ctx, ep| {
            let (buf, mh) = registered(ctx, &ep.provider, 2048);
            for _ in 0..msgs {
                ep.vi
                    .post_recv(ctx, ep.split_desc(true, buf, mh, 1024, 1))
                    .unwrap();
            }
            ep.sync(ctx);
            for _ in 0..msgs {
                let c = ep.vi.recv_wait(ctx, WaitMode::Block);
                assert!(c.is_ok(), "{:?}", c.status);
            }
        },
        move |ctx, ep| {
            let (buf, mh) = registered(ctx, &ep.provider, 2048);
            ep.sync(ctx);
            let mut s = Stream::new(&ep.vi, 1, WaitMode::Block);
            for _ in 0..msgs {
                s.post(ctx, ep.split_desc(false, buf, mh, 1024, 1)).unwrap();
            }
            ep.provider.stats()
        },
    );
    (sim.sched_stats(), stats)
}

/// Per-[`EventClass`] fired / cancelled / dead-popped counts for a
/// loss-free `msgs`-message reliable stream on `profile`.
pub fn class_table(profile: Profile, msgs: u32) -> Table {
    let name = profile.name;
    let (sched, _) = run_stream(profile, 0.0, msgs);
    let mut t = Table::new(
        format!("Scheduler event classes: {msgs}-msg reliable stream, {name}, zero loss"),
        vec![
            "fired".to_string(),
            "cancelled".to_string(),
            "dead popped".to_string(),
        ],
    );
    for class in EventClass::ALL {
        let tally = sched.class(class);
        t.push(
            class.name(),
            vec![
                tally.fired as f64,
                tally.cancelled as f64,
                tally.dead_popped as f64,
            ],
        );
    }
    t.push(
        "total",
        vec![
            sched.fired as f64,
            sched.cancelled as f64,
            sched.dead_popped as f64,
        ],
    );
    t
}

/// Retransmission-timer ledger per profile and loss rate: timers armed,
/// timers cancelled by their ACK, timers that expired (armed − cancelled,
/// each one a retransmission trigger). At zero loss the fired column must
/// be all zeros. Profiles that do not implement Reliable Delivery (BVIA)
/// are skipped, as in the paper's X-REL treatment.
pub fn retx_timer_table(profiles: &[Profile], losses: &[f64], msgs: u32) -> Table {
    let mut t = Table::new(
        format!("Retransmit timers: {msgs}-msg reliable stream"),
        vec![
            "armed".to_string(),
            "cancelled".to_string(),
            "fired".to_string(),
        ],
    );
    for p in profiles {
        if !p.supports_reliability(Reliability::ReliableDelivery) {
            continue;
        }
        for &loss in losses {
            let (_, stats) = run_stream(p.clone(), loss, msgs);
            t.push(
                format!("{} loss={:.0}%", p.name, loss * 100.0),
                vec![
                    stats.retx_timers_armed as f64,
                    stats.retx_timers_cancelled as f64,
                    (stats.retx_timers_armed - stats.retx_timers_cancelled) as f64,
                ],
            );
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_cancels_all_retx_timers() {
        let t = retx_timer_table(&[Profile::clan()], &[0.0], 32);
        let row = "cLAN loss=0%";
        assert_eq!(t.cell(row, "armed"), Some(32.0));
        assert_eq!(t.cell(row, "fired"), Some(0.0));
        assert_eq!(t.cell(row, "cancelled"), Some(32.0));
    }

    #[test]
    fn loss_makes_some_timers_fire() {
        let t = retx_timer_table(&[Profile::clan()], &[0.10], 32);
        let fired = t.cell("cLAN loss=10%", "fired").unwrap();
        assert!(fired > 0.0, "10% loss must expire some retransmit timers");
    }

    #[test]
    fn class_table_is_consistent() {
        let t = class_table(Profile::clan(), 32);
        // The per-class rows must sum to the total row.
        for col in ["fired", "cancelled", "dead popped"] {
            let total = t.cell("total", col).unwrap();
            let sum: f64 = EventClass::ALL
                .iter()
                .map(|c| t.cell(c.name(), col).unwrap())
                .sum();
            assert_eq!(sum, total, "column {col}");
        }
        // A reliable stream exercises every part of the stack.
        assert!(t.cell("retransmit", "cancelled").unwrap() > 0.0);
        assert!(t.cell("firmware", "fired").unwrap() > 0.0);
        assert!(t.cell("completion", "fired").unwrap() > 0.0);
    }
}
