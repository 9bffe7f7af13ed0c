//! Per-node CPU busy-time accounting — the simulation's `getrusage()`.
//!
//! The VIBe paper measures CPU utilization with `getrusage`: the fraction of
//! wall time a benchmark's host processor spent executing (as opposed to
//! blocked in the kernel). Here, hosts charge busy time explicitly
//! ([`crate::ProcessCtx::busy`], [`crate::ProcessCtx::wait_polling`]) and a
//! [`CpuMeter`] turns two snapshots into a utilization figure.

use crate::engine::Sim;
use crate::time::{SimDuration, SimTime};

/// Identifier of a registered CPU within one [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CpuId(u32);

impl CpuId {
    pub(crate) fn new(v: u32) -> Self {
        CpuId(v)
    }
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Result of metering a CPU over an interval.
#[derive(Clone, Copy, Debug)]
pub struct CpuUsage {
    /// Busy time accumulated during the metered interval.
    pub busy: SimDuration,
    /// Length of the metered interval.
    pub elapsed: SimDuration,
}

impl CpuUsage {
    /// Utilization in `[0, 1]`. A zero-length interval reports 0.
    pub fn utilization(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            (self.busy.as_nanos() as f64 / self.elapsed.as_nanos() as f64).min(1.0)
        }
    }

    /// Utilization as a percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        self.utilization() * 100.0
    }
}

/// Snapshot-based utilization meter: construct at the start of a measured
/// region, call [`CpuMeter::stop`] at the end.
#[derive(Clone, Copy, Debug)]
pub struct CpuMeter {
    cpu: CpuId,
    start_busy: SimDuration,
    start_time: SimTime,
}

impl CpuMeter {
    /// Snapshot `cpu`'s busy counter and the clock.
    pub fn start(sim: &Sim, cpu: CpuId) -> Self {
        CpuMeter {
            cpu,
            start_busy: sim.cpu_busy(cpu),
            start_time: sim.now(),
        }
    }

    /// Close the interval and report usage since [`CpuMeter::start`].
    pub fn stop(&self, sim: &Sim) -> CpuUsage {
        CpuUsage {
            busy: sim.cpu_busy(self.cpu) - self.start_busy,
            elapsed: sim.now() - self.start_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let u = CpuUsage {
            busy: SimDuration::from_micros(25),
            elapsed: SimDuration::from_micros(100),
        };
        assert!((u.utilization() - 0.25).abs() < 1e-12);
        assert!((u.percent() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn zero_interval_is_zero_utilization() {
        let u = CpuUsage {
            busy: SimDuration::ZERO,
            elapsed: SimDuration::ZERO,
        };
        assert_eq!(u.utilization(), 0.0);
    }

    #[test]
    fn utilization_clamps_at_one() {
        // Over-charging (e.g. two processes on one CPU) must not exceed 100%.
        let u = CpuUsage {
            busy: SimDuration::from_micros(150),
            elapsed: SimDuration::from_micros(100),
        };
        assert_eq!(u.utilization(), 1.0);
    }

    #[test]
    fn meter_brackets_busy_time() {
        let sim = Sim::new();
        let cpu = sim.add_cpu("host");
        sim.spawn("p", Some(cpu), move |ctx| {
            ctx.busy(SimDuration::from_micros(10)); // before metering
            let meter = CpuMeter::start(ctx.sim(), cpu);
            ctx.busy(SimDuration::from_micros(30));
            ctx.sleep(SimDuration::from_micros(70));
            let usage = meter.stop(ctx.sim());
            assert_eq!(usage.busy, SimDuration::from_micros(30));
            assert_eq!(usage.elapsed, SimDuration::from_micros(100));
            assert!((usage.percent() - 30.0).abs() < 1e-9);
        });
        sim.run_to_completion();
    }
}
