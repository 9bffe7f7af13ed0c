//! Properties of the event slab that its representation could silently
//! lose: every capture dropped exactly once on every exit path, captures
//! intact while the slab reallocates under a running handler, over-aligned
//! closures kept off the inline path, and the `PoolStats` ledger of a fixed
//! world.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use simkit::engine::LARGE_WORDS;
use simkit::{EventClass, Notify, PoolStats, Sim, SimDuration, TimerHandle, WaitMode};

/// Counts its own drops.
struct DropCount(Arc<AtomicUsize>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Arm a timer whose closure captures `guard` plus `PAD` words of ballast,
/// so one body exercises every storage class.
fn arm<const PAD: usize>(sim: &Sim, guard: DropCount, fired: &Arc<AtomicUsize>) -> TimerHandle {
    let pad = [1usize; PAD];
    let fired = Arc::clone(fired);
    sim.timer_in(EventClass::User, SimDuration::from_nanos(10), move |_| {
        let _guard = guard;
        fired.fetch_add(pad.iter().product(), Ordering::Relaxed);
    })
}

/// Fire, cancel and teardown for one capture size; returns what the pool
/// recorded so the caller can check which class the size landed in.
fn dropped_once_on_every_path<const PAD: usize>() -> PoolStats {
    let drops = Arc::new(AtomicUsize::new(0));
    let fired = Arc::new(AtomicUsize::new(0));
    let guard = || DropCount(Arc::clone(&drops));

    // Fires: dropped by the call itself.
    let sim = Sim::new();
    arm::<PAD>(&sim, guard(), &fired);
    assert_eq!(drops.load(Ordering::Relaxed), 0, "dropped while pending");
    sim.run();
    assert_eq!(fired.load(Ordering::Relaxed), 1);
    assert_eq!(drops.load(Ordering::Relaxed), 1, "fired: not exactly once");

    // Cancelled: dropped at `cancel()`, before any `run`.
    let h = arm::<PAD>(&sim, guard(), &fired);
    assert!(h.cancel());
    assert_eq!(drops.load(Ordering::Relaxed), 2, "cancel must drop at once");
    sim.run();
    assert_eq!(fired.load(Ordering::Relaxed), 1, "cancelled timer fired");
    assert_eq!(drops.load(Ordering::Relaxed), 2, "cancelled: dropped twice");

    // Still pending when the simulation goes away.
    arm::<PAD>(&sim, guard(), &fired);
    let pool = sim.sched_stats().pool;
    drop(sim);
    assert_eq!(
        drops.load(Ordering::Relaxed),
        3,
        "teardown: not exactly once"
    );
    assert_eq!(fired.load(Ordering::Relaxed), 1);
    pool
}

#[test]
fn captures_drop_exactly_once_fired_cancelled_and_torn_down() {
    // Two `Arc`s, and two `Arc`s plus eight words: both inline.
    let small = dropped_once_on_every_path::<0>();
    assert_eq!((small.inline, small.boxed), (3, 0), "{small:?}");
    let large = dropped_once_on_every_path::<8>();
    assert_eq!((large.inline, large.boxed), (3, 0), "{large:?}");
    let oversized = dropped_once_on_every_path::<{ LARGE_WORDS }>();
    assert_eq!(oversized.boxed, 3, "{oversized:?}");
}

#[test]
fn captures_survive_slab_reallocation_under_the_running_handler() {
    // The handler's own closure must already be out of the slab when it
    // runs: it grows the slab by 10 000 slots (several reallocations) and
    // then reads every word it captured.
    let sim = Sim::new();
    let ran = Arc::new(AtomicUsize::new(0));
    let words: [usize; 20] = std::array::from_fn(|i| i * 0x0101_0101 + 7);
    let (ran2, expect) = (Arc::clone(&ran), words);
    sim.call_in(SimDuration::from_nanos(1), move |sim| {
        for i in 0..10_000u64 {
            let ran = Arc::clone(&ran2);
            sim.call_in(SimDuration::from_nanos(1 + i % 13), move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(words, expect, "captures clobbered by slab growth");
        ran2.fetch_add(1, Ordering::Relaxed);
    });
    let report = sim.run();
    assert_eq!(ran.load(Ordering::Relaxed), 10_001);
    assert!(report.sched.pool.slot_grown >= 10_000);
}

#[test]
fn over_aligned_closure_is_boxed_and_runs() {
    #[repr(align(64))]
    #[derive(Clone, Copy)]
    struct Wide(u8);
    let sim = Sim::new();
    let seen = Arc::new(AtomicUsize::new(0));
    let (wide, seen2) = (Wide(42), Arc::clone(&seen));
    sim.call_in(SimDuration::from_nanos(1), move |_| {
        // The capture must sit at its own alignment, not the slot's.
        assert_eq!(&wide as *const Wide as usize % 64, 0);
        seen2.store(wide.0 as usize, Ordering::Relaxed);
    });
    let report = sim.run();
    assert_eq!(seen.load(Ordering::Relaxed), 42);
    assert_eq!(report.sched.pool.boxed, 1, "{:?}", report.sched.pool);
}

#[test]
fn pool_ledger_of_a_fixed_world_is_unchanged() {
    // A ping-pong between two processes (wakes), a depth-8 stream of
    // self-rescheduling closures in all three storage classes, and a timer
    // armed and cancelled per stream step. The literals were recorded from
    // the enum-in-slot arena this slab replaced; only the small/large
    // split may move (and only if captures change size).
    let sim = Sim::new();
    let (ping, pong) = (Notify::new(&sim), Notify::new(&sim));
    let (ping2, pong2) = (ping.clone(), pong.clone());
    sim.spawn("pinger", None, move |ctx| {
        for _ in 0..200u32 {
            ctx.busy(SimDuration::from_nanos(40));
            ping.signal(ctx.sim());
            pong2.wait(ctx, WaitMode::Block);
        }
    });
    sim.spawn("ponger", None, move |ctx| {
        for _ in 0..200u32 {
            ping2.wait(ctx, WaitMode::Block);
            ctx.sleep(SimDuration::from_nanos(25));
            pong.signal(ctx.sim());
        }
    });
    fn step(sim: &Sim, lane: u64, left: u32, done: Arc<AtomicUsize>) {
        if left == 0 {
            done.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let watchdog = sim.timer_in(EventClass::Retransmit, SimDuration::from_micros(50), |_| {
            panic!("cancelled before it can fire")
        });
        let delay = SimDuration::from_nanos(30 + lane * 7);
        match left % 3 {
            0 => sim.call_in_as(EventClass::Fabric, delay, move |sim| {
                watchdog.cancel();
                step(sim, lane, left - 1, done)
            }),
            1 => {
                let pad = [lane; 12];
                sim.call_in_as(EventClass::Firmware, delay, move |sim| {
                    watchdog.cancel();
                    step(sim, pad[11], left - 1, done)
                })
            }
            _ => {
                let pad = [lane; 40];
                sim.call_in_as(EventClass::Completion, delay, move |sim| {
                    watchdog.cancel();
                    step(sim, pad[39], left - 1, done)
                })
            }
        }
    }
    let done = Arc::new(AtomicUsize::new(0));
    for lane in 0..8 {
        let done = Arc::clone(&done);
        sim.call_in(SimDuration::ZERO, move |sim| step(sim, lane, 300, done));
    }
    let report = sim.run_to_completion();
    assert_eq!(done.load(Ordering::Relaxed), 8);
    let pool = report.sched.pool;
    assert_eq!(pool.inline, 2408 + 1600, "{pool:?}");
    assert_eq!(pool.boxed, 800, "{pool:?}");
    assert_eq!(pool.wakes, 802, "{pool:?}");
    // Every action scheduled fired or was cancelled, and every cancel's
    // stale heap entry was reaped by the time the queue drained.
    let sched = &report.sched;
    assert_eq!(
        (sched.fired, sched.cancelled, sched.dead_popped),
        (3210, 2400, 2400),
        "{sched:?}"
    );
    assert_eq!(pool.slot_reused, 5593, "{pool:?}");
    assert_eq!(pool.slot_grown, 17, "{pool:?}");
}
