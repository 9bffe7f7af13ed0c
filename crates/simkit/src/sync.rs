//! Synchronization primitives for simulated processes.
//!
//! Two primitives, both on *virtual* time: waiting costs no host CPU and
//! wakes happen through the event queue, preserving determinism.
//! [`Notify`], a counting semaphore, is what the VIA layer uses for
//! completion notification; [`SimBarrier`] is what benchmarks use for
//! phase coordination.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::confined::Confined;
use crate::engine::Sim;
use crate::process::{ProcessCtx, WaitToken};
use crate::time::SimDuration;

/// How a process waits for an event — the central dichotomy of the VIBe
/// benchmarks (§3.2.1 runs every test in both modes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitMode {
    /// Spin until the event arrives; the waiting interval is charged to the
    /// process's CPU (100% utilization while waiting).
    Poll,
    /// Block; the process is descheduled and charged nothing while waiting.
    /// (Interrupt-delivery *costs* are modeled by the NIC layer, not here.)
    Block,
}

impl ProcessCtx {
    /// Wait on `token` honoring `mode` (see [`WaitMode`]).
    pub fn wait_mode(&mut self, token: WaitToken, mode: WaitMode) {
        match mode {
            WaitMode::Poll => {
                self.wait_polling(token);
            }
            WaitMode::Block => self.wait(token),
        }
    }
}

#[derive(Default)]
struct NotifyState {
    pending: u64,
    waiters: VecDeque<WaitToken>,
}

/// A counting notification source (a virtual-time semaphore).
///
/// `signal` either hands its credit directly to the longest-waiting process
/// or banks it for the next waiter; FIFO hand-off keeps runs deterministic.
/// Its state is a confined cell of the [`Sim`] it was made for.
#[derive(Clone)]
pub struct Notify {
    state: Arc<Confined<NotifyState>>,
}

impl Notify {
    /// New notification source on `sim`, with zero banked signals.
    pub fn new(sim: &Sim) -> Self {
        Notify {
            state: Arc::new(sim.confined(NotifyState::default())),
        }
    }

    /// Post one signal. Callable from event handlers and processes alike.
    pub fn signal(&self, sim: &Sim) {
        let mut st = self.state.lock();
        if let Some(waiter) = st.waiters.pop_front() {
            sim.wake(waiter);
        } else {
            st.pending += 1;
        }
    }

    /// Consume one signal, parking until one is available. Returns the time
    /// spent waiting.
    pub fn wait(&self, ctx: &mut ProcessCtx, mode: WaitMode) -> SimDuration {
        let start = ctx.now();
        {
            let mut st = self.state.lock();
            if st.pending > 0 {
                st.pending -= 1;
                return SimDuration::ZERO;
            }
            let token = ctx.prepare_wait();
            st.waiters.push_back(token);
            drop(st);
            ctx.wait_mode(token, mode);
        }
        ctx.now() - start
    }
}

struct BarrierState {
    needed: usize,
    arrived: usize,
    waiters: Vec<WaitToken>,
}

/// A reusable N-party barrier on virtual time (benchmark phase alignment).
#[derive(Clone)]
pub struct SimBarrier {
    state: Arc<Confined<BarrierState>>,
}

impl SimBarrier {
    /// Barrier on `sim` for `n` parties (`n >= 1`).
    pub fn new(sim: &Sim, n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one party");
        SimBarrier {
            state: Arc::new(sim.confined(BarrierState {
                needed: n,
                arrived: 0,
                waiters: Vec::new(),
            })),
        }
    }

    /// Arrive and park until all `n` parties have arrived. Reusable: the
    /// barrier resets once it releases.
    pub fn wait(&self, ctx: &mut ProcessCtx) {
        let token = {
            let mut st = self.state.lock();
            st.arrived += 1;
            if st.arrived == st.needed {
                st.arrived = 0;
                let waiters = std::mem::take(&mut st.waiters);
                drop(st);
                for w in waiters {
                    ctx.sim().wake(w);
                }
                return;
            }
            let token = ctx.prepare_wait();
            st.waiters.push(token);
            token
        };
        ctx.wait(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use parking_lot::Mutex;

    #[test]
    fn notify_banks_signals() {
        let sim = Sim::new();
        let n = Notify::new(&sim);
        n.signal(&sim);
        n.signal(&sim);
        let n2 = n.clone();
        // Two banked signals are consumed at once; the third wait parks
        // until the next signal.
        let h = sim.spawn("waiter", None, move |ctx| {
            [0; 3].map(|_| n2.wait(ctx, WaitMode::Block))
        });
        let n3 = n.clone();
        sim.call_in(SimDuration::from_micros(5), move |s| n3.signal(s));
        sim.run_to_completion();
        let zero = SimDuration::ZERO;
        assert_eq!(h.expect_result(), [zero, zero, SimDuration::from_micros(5)]);
    }

    #[test]
    fn notify_wakes_blocked_waiter() {
        let sim = Sim::new();
        let n = Notify::new(&sim);
        let n2 = n.clone();
        let h = sim.spawn("waiter", None, move |ctx| {
            let waited = n2.wait(ctx, WaitMode::Block);
            (waited, ctx.now())
        });
        let n3 = n.clone();
        sim.call_in(SimDuration::from_micros(25), move |s| n3.signal(s));
        sim.run_to_completion();
        let (waited, at) = h.expect_result();
        assert_eq!(waited, SimDuration::from_micros(25));
        assert_eq!(at, SimTime::from_nanos(25_000));
    }

    #[test]
    fn notify_pre_banked_signal_returns_immediately() {
        let sim = Sim::new();
        let n = Notify::new(&sim);
        n.signal(&sim);
        let n2 = n.clone();
        let h = sim.spawn("waiter", None, move |ctx| n2.wait(ctx, WaitMode::Block));
        sim.run_to_completion();
        assert_eq!(h.expect_result(), SimDuration::ZERO);
    }

    #[test]
    fn notify_fifo_ordering_across_waiters() {
        let sim = Sim::new();
        let n = Notify::new(&sim);
        let order = Arc::new(Mutex::new(Vec::new()));
        for name in ["w0", "w1", "w2"] {
            let n = n.clone();
            let order = Arc::clone(&order);
            sim.spawn(name, None, move |ctx| {
                n.wait(ctx, WaitMode::Block);
                order.lock().push(name);
            });
        }
        for i in 0..3u64 {
            let n = n.clone();
            sim.call_in(SimDuration::from_micros(10 * (i + 1)), move |s| n.signal(s));
        }
        sim.run_to_completion();
        assert_eq!(*order.lock(), vec!["w0", "w1", "w2"]);
    }

    #[test]
    fn barrier_releases_all_parties_together() {
        let sim = Sim::new();
        let b = SimBarrier::new(&sim, 3);
        let times = Arc::new(Mutex::new(Vec::new()));
        for (name, d) in [("a", 10u64), ("b", 20), ("c", 30)] {
            let b = b.clone();
            let times = Arc::clone(&times);
            sim.spawn(name, None, move |ctx| {
                ctx.sleep(SimDuration::from_micros(d));
                b.wait(ctx);
                times.lock().push(ctx.now());
            });
        }
        sim.run_to_completion();
        let times = times.lock();
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t == SimTime::from_nanos(30_000)));
    }

    #[test]
    fn barrier_is_reusable() {
        let sim = Sim::new();
        let b = SimBarrier::new(&sim, 2);
        let rounds = Arc::new(Mutex::new(0u32));
        for name in ["a", "b"] {
            let b = b.clone();
            let rounds = Arc::clone(&rounds);
            sim.spawn(name, None, move |ctx| {
                for _ in 0..4 {
                    ctx.sleep(SimDuration::from_micros(if name == "a" { 3 } else { 5 }));
                    b.wait(ctx);
                }
                *rounds.lock() += 1;
            });
        }
        sim.run_to_completion();
        assert_eq!(*rounds.lock(), 2);
    }

    #[test]
    fn polling_wait_on_notify_burns_cpu() {
        let sim = Sim::new();
        let cpu = sim.add_cpu("host");
        let n = Notify::new(&sim);
        let n2 = n.clone();
        sim.spawn("poller", Some(cpu), move |ctx| {
            n2.wait(ctx, WaitMode::Poll);
        });
        let n3 = n.clone();
        sim.call_in(SimDuration::from_micros(40), move |s| n3.signal(s));
        sim.run_to_completion();
        assert_eq!(sim.cpu_busy(cpu), SimDuration::from_micros(40));
    }
}
