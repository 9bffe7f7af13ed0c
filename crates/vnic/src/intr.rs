//! Interrupt delivery for blocking completion waits.
//!
//! Polling waits resume the instant a completion lands (and burn CPU the
//! whole time); blocking waits pay an interrupt: dispatch latency before the
//! process runs again, plus handler CPU charged to the node. This trade is
//! the entire content of the paper's Fig. 4 (blocking latency up, CPU
//! utilization down).
//!
//! Interrupt wakes are scheduled as [`EventClass::Completion`] timers, so a
//! run report attributes them to the completion path. Every completion
//! raises its own interrupt: one handler charge per delivery.

use simkit::{CpuId, EventClass, Sim, SimDuration, WaitToken};

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
}
