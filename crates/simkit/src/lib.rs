//! # simkit — deterministic discrete-event simulation kernel
//!
//! The substrate under the whole VIBe reproduction: a virtual-time event
//! scheduler plus *cooperative processes on stackful coroutines*, so that
//! simulated hosts can run natural blocking code (like the paper's VIPL
//! benchmark loops) while the run stays bit-for-bit deterministic.
//!
//! ## Model
//!
//! * The clock is an integer nanosecond counter ([`SimTime`]); events are
//!   ordered by `(time, insertion sequence)` so ties break FIFO.
//! * A *process* ([`Sim::spawn`]) runs on its own stack, on the thread that
//!   called [`Sim::run`]: a wake switches that thread onto the process, a
//!   wait switches it back, so exactly one of them (the event loop or one
//!   process) executes at any instant — the OS scheduler can never affect
//!   results. x86-64 Linux only; each stack is 1 MiB of lazily committed
//!   address space above a guard page.
//! * Processes spend virtual time explicitly: [`ProcessCtx::busy`] charges a
//!   CPU (the simulated `getrusage`), [`ProcessCtx::sleep`] idles, and waits
//!   come in polling ([`ProcessCtx::wait_polling`], 100% CPU) and blocking
//!   ([`ProcessCtx::wait`], 0% CPU) flavors — the central dichotomy the
//!   VIBe paper measures.
//! * Timers are first-class and cancellable: [`Sim::timer_in`] /
//!   [`Sim::timer_at`] return a [`TimerHandle`] whose `cancel()` is O(1)
//!   (generational slab + lazy heap deletion), and every event carries an
//!   [`EventClass`] tag tallied in [`SchedStats`].
//!
//! ## Example
//!
//! ```
//! use simkit::{Sim, SimDuration, WaitMode, Notify};
//!
//! let sim = Sim::new();
//! let cpu = sim.add_cpu("node0");
//! let done = Notify::new(&sim);
//!
//! let d2 = done.clone();
//! let h = sim.spawn("worker", Some(cpu), move |ctx| {
//!     ctx.busy(SimDuration::from_micros(5)); // 5 us of host work
//!     d2.wait(ctx, WaitMode::Block);         // block until signaled
//!     ctx.now()
//! });
//!
//! let d3 = done.clone();
//! sim.call_in(SimDuration::from_micros(100), move |s| d3.signal(s));
//! sim.run_to_completion();
//! assert_eq!(h.expect_result().as_nanos(), 100_000);
//! assert_eq!(sim.cpu_busy(cpu), SimDuration::from_micros(5));
//! ```

#![warn(missing_docs)]

pub mod confined;
mod coroutine;
pub mod cpu;
pub mod engine;
pub mod process;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use confined::{Confined, ConfinedGuard};
pub use cpu::{CpuId, CpuMeter, CpuUsage};
pub use engine::{
    thread_events, thread_fuse_stats, thread_pool_stats, ClassTally, DefuseCause, EventClass,
    EventHook, FuseTally, PoolStats, RunReport, SchedStats, Sim, TimerHandle,
};
pub use process::{ProcessCtx, ProcessHandle, ProcessId, WaitToken};
pub use rng::SimRng;
pub use stats::{megabytes_per_second, Samples};
pub use sync::{Notify, SimBarrier, WaitMode};
pub use time::{SimDuration, SimTime};
