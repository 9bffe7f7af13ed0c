//! Interrupt delivery for blocking completion waits.
//!
//! Polling waits resume the instant a completion lands (and burn CPU the
//! whole time); blocking waits pay an interrupt: dispatch latency before the
//! process runs again, plus handler CPU charged to the node. This trade is
//! the entire content of the paper's Fig. 4 (blocking latency up, CPU
//! utilization down).
//!
//! Interrupt wakes are scheduled as [`EventClass::Completion`] timers, so a
//! run report attributes them to the completion path. [`CoalescedInterrupts`]
//! adds optional interrupt moderation on top: deliveries landing inside an
//! open moderation window piggyback on the already-armed wake timer
//! (cancelling and re-arming it with the newest wait token) instead of
//! raising a fresh interrupt — one handler charge per fired interrupt, not
//! per completion. A zero window degenerates to immediate per-completion
//! delivery, which is the default everywhere.

use std::sync::Arc;

use parking_lot::Mutex;
use simkit::{CpuId, EventClass, Sim, SimDuration, SimTime, TimerHandle, WaitToken};

use crate::host::HostParams;

/// Per-node interrupt delivery model.
#[derive(Clone, Copy, Debug)]
pub struct InterruptController {
    cpu: CpuId,
    /// Device-assert → process-running delay.
    latency: SimDuration,
    /// Host CPU consumed by the handler + wakeup path.
    cpu_cost: SimDuration,
}

impl InterruptController {
    /// Controller for `cpu` with explicit costs.
    pub fn new(cpu: CpuId, latency: SimDuration, cpu_cost: SimDuration) -> Self {
        InterruptController {
            cpu,
            latency,
            cpu_cost,
        }
    }

    /// Controller using the host parameter defaults.
    pub fn from_host(cpu: CpuId, host: &HostParams) -> Self {
        Self::new(cpu, host.interrupt_latency, host.interrupt_cpu_cost)
    }

    /// Deliver an interrupt that resumes the process blocked on `token`:
    /// charges handler CPU and wakes the process after the dispatch latency.
    pub fn deliver(&self, sim: &Sim, token: WaitToken) {
        sim.charge(self.cpu, self.cpu_cost);
        sim.wake_in_as(EventClass::Completion, self.latency, token);
    }

    /// The dispatch latency of this controller.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }
}

struct PendingIntr {
    deadline: SimTime,
    timer: TimerHandle,
}

/// An [`InterruptController`] with a moderation window.
///
/// The first completion in a quiet period charges the handler and arms a
/// cancellable wake timer `latency + window` out; completions arriving
/// before that deadline cancel the pending timer and re-arm it **at the
/// same deadline** with their (newer) wait token — the wake is never
/// pushed back, and the waiter always resumes on a token it is actually
/// parked on. Clones share the window state.
#[derive(Clone)]
pub struct CoalescedInterrupts {
    ctrl: InterruptController,
    window: SimDuration,
    pending: Arc<Mutex<Option<PendingIntr>>>,
}

impl CoalescedInterrupts {
    /// Wrap `ctrl` with a moderation `window`. A zero window forwards every
    /// delivery straight to [`InterruptController::deliver`].
    pub fn new(ctrl: InterruptController, window: SimDuration) -> Self {
        CoalescedInterrupts {
            ctrl,
            window,
            pending: Arc::new(Mutex::new(None)),
        }
    }

    /// Deliver (or merge) an interrupt for `token`.
    pub fn deliver(&self, sim: &Sim, token: WaitToken) {
        if self.window == SimDuration::ZERO {
            self.ctrl.deliver(sim, token);
            return;
        }
        let now = sim.now();
        let mut pending = self.pending.lock();
        if let Some(p) = pending.as_ref() {
            if p.deadline >= now && p.timer.cancel() {
                // Merge: same deadline, newest token, no extra handler cost.
                let timer = sim.wake_timer_in(EventClass::Completion, p.deadline - now, token);
                *pending = Some(PendingIntr {
                    deadline: p.deadline,
                    timer,
                });
                return;
            }
        }
        sim.charge(self.ctrl.cpu, self.ctrl.cpu_cost);
        let deadline = now + self.ctrl.latency + self.window;
        let timer = sim.wake_timer_in(EventClass::Completion, deadline - now, token);
        *pending = Some(PendingIntr { deadline, timer });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simkit::SimTime;
    use std::sync::Arc;

    #[test]
    fn interrupt_adds_latency_and_charges_cpu() {
        let sim = Sim::new();
        let cpu = sim.add_cpu("host");
        let host = HostParams::pentium_ii_300();
        let ic = InterruptController::from_host(cpu, &host);
        let slot: Arc<Mutex<Option<WaitToken>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&slot);
        let h = sim.spawn("blocked", Some(cpu), move |ctx| {
            let t = ctx.prepare_wait();
            *s2.lock() = Some(t);
            ctx.wait(t); // blocking: no CPU while waiting
            ctx.now()
        });
        let s3 = Arc::clone(&slot);
        sim.call_in(SimDuration::from_micros(100), move |s| {
            let t = s3.lock().take().unwrap();
            ic.deliver(s, t);
        });
        sim.run_to_completion();
        // Resumed at completion time + interrupt latency.
        assert_eq!(
            h.expect_result(),
            SimTime::ZERO + SimDuration::from_micros(100) + host.interrupt_latency
        );
        // Only the handler cost was charged, not the 100 us of blocking.
        assert_eq!(sim.cpu_busy(cpu), host.interrupt_cpu_cost);
    }

    #[test]
    fn interrupt_wake_accounts_as_completion() {
        let sim = Sim::new();
        let cpu = sim.add_cpu("host");
        let host = HostParams::pentium_ii_300();
        let ic = InterruptController::from_host(cpu, &host);
        let slot: Arc<Mutex<Option<WaitToken>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&slot);
        sim.spawn("blocked", Some(cpu), move |ctx| {
            let t = ctx.prepare_wait();
            *s2.lock() = Some(t);
            ctx.wait(t);
        });
        let s3 = Arc::clone(&slot);
        sim.call_in(SimDuration::from_micros(10), move |s| {
            let t = s3.lock().take().unwrap();
            ic.deliver(s, t);
        });
        let report = sim.run_to_completion();
        assert_eq!(report.sched.class(EventClass::Completion).fired, 1);
    }

    #[test]
    fn zero_window_coalescing_matches_plain_delivery() {
        let host = HostParams::pentium_ii_300();
        let sim = Sim::new();
        let cpu = sim.add_cpu("host");
        let ic = CoalescedInterrupts::new(
            InterruptController::from_host(cpu, &host),
            SimDuration::ZERO,
        );
        let slot: Arc<Mutex<Option<WaitToken>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&slot);
        let h = sim.spawn("blocked", Some(cpu), move |ctx| {
            let t = ctx.prepare_wait();
            *s2.lock() = Some(t);
            ctx.wait(t);
            ctx.now()
        });
        let s3 = Arc::clone(&slot);
        sim.call_in(SimDuration::from_micros(100), move |s| {
            let t = s3.lock().take().unwrap();
            ic.deliver(s, t);
        });
        sim.run_to_completion();
        assert_eq!(
            h.expect_result(),
            SimTime::ZERO + SimDuration::from_micros(100) + host.interrupt_latency
        );
        assert_eq!(sim.cpu_busy(cpu), host.interrupt_cpu_cost);
    }

    #[test]
    fn window_merges_back_to_back_interrupts() {
        // Two deliveries inside one window: one handler charge, one fired
        // wake timer, one cancelled (the merged re-arm).
        let host = HostParams::pentium_ii_300();
        let sim = Sim::new();
        let cpu = sim.add_cpu("host");
        let window = SimDuration::from_micros(20);
        let ic = CoalescedInterrupts::new(InterruptController::from_host(cpu, &host), window);
        let slot: Arc<Mutex<Option<WaitToken>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&slot);
        let h = sim.spawn("blocked", Some(cpu), move |ctx| {
            let t = ctx.prepare_wait();
            *s2.lock() = Some(t);
            ctx.wait(t);
            ctx.now()
        });
        let ic2 = ic.clone();
        let s3 = Arc::clone(&slot);
        sim.call_in(SimDuration::from_micros(100), move |s| {
            let t = s3.lock().expect("waiter parked");
            ic2.deliver(s, t);
        });
        let s4 = Arc::clone(&slot);
        sim.call_in(SimDuration::from_micros(105), move |s| {
            // Second completion, 5 us later: still inside the window. The
            // waiter has not moved, so its token is unchanged — merging
            // re-arms the same wake.
            let t = s4.lock().expect("waiter parked");
            ic.deliver(s, t);
        });
        let report = sim.run_to_completion();
        // Woken at the *first* delivery's deadline, exactly once charged.
        assert_eq!(
            h.expect_result(),
            SimTime::ZERO + SimDuration::from_micros(100) + host.interrupt_latency + window
        );
        assert_eq!(sim.cpu_busy(cpu), host.interrupt_cpu_cost);
        assert_eq!(report.sched.class(EventClass::Completion).cancelled, 1);
    }
}
