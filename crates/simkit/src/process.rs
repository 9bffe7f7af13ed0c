//! Cooperative simulated processes on stackful coroutines.
//!
//! Each simulated process is a stackful coroutine: its body runs on a private
//! stack, on the thread inside [`Sim::run`], so benchmark code can
//! use a natural *blocking* style (`post_send(); wait_send();` loops, like
//! the paper's VIPL benchmarks). A wake event switches the running thread
//! onto the process's stack; [`ProcessCtx::wait`] switches it back. The
//! event loop and the processes therefore alternate on one thread — exactly
//! one of them executes at any instant, and which one is decided by the
//! event queue alone.
//!
//! A per-process **baton** (`ProcessRecord::baton`, a [`Confined`] cell)
//! records whether the process is parked (and on which wait), running, or
//! finished; only the caller that moves it from parked to running touches
//! the coroutine. A resume is three steps, each a short borrow of the
//! baton or none: take it (parked → running), switch onto the body, and
//! publish where the body stopped — the body itself publishes the wait it
//! parks on just before it leaves its stack, and its resumer publishes
//! *finished*. No borrow is held across a stack switch. All of it happens
//! on the thread that built the [`Sim`]: the world is confined to that
//! thread ([`crate::confined`]), processes included. The one rule this puts
//! on process bodies: **hold no `ConfinedGuard` across a `wait`** —
//! whatever runs meanwhile may lock the same cell, and a second guard
//! panics.
//!
//! A process that sleeps or yields when its own wake would be the next
//! event to fire does not leave its stack at all: [`ProcessCtx::sleep`]
//! asks the engine to fire that wake in place (clock, event count and
//! event hook exactly as if it had been queued and popped), and only
//! queues it and parks when something else is due first.
//!
//! Wakeups are tokenized: every wait gets a fresh [`WaitToken`], and a wake
//! only resumes the process if it is still waiting on that exact token.
//! Stale wakes (races between a timeout and a signal, duplicate signals) are
//! dropped, which makes signaling unconditionally safe.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::confined::Confined;
use crate::coroutine::{Coroutine, Resumed};
use crate::cpu::CpuId;
use crate::engine::Sim;
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned process, unique within one [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProcessId(u32);

impl ProcessId {
    pub(crate) fn new(v: u32) -> Self {
        ProcessId(v)
    }
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Names one particular wait of one particular process. Obtained from
/// [`ProcessCtx::prepare_wait`]; consumed by [`Sim::wake`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WaitToken {
    pid: ProcessId,
    seq: u64,
}

impl WaitToken {
    pub(crate) fn initial(pid: ProcessId) -> Self {
        WaitToken { pid, seq: 0 }
    }
    pub(crate) fn pid(self) -> ProcessId {
        self.pid
    }
}

/// Baton value while the process's body (or its resumer, on the way in or
/// out) is executing. Every other value below [`FINISHED`] is the sequence
/// number of the wait the process is parked on.
const RUNNING: u64 = u64::MAX;
/// Baton value once the body has returned or unwound.
const FINISHED: u64 = u64::MAX - 1;

/// Payload of the unwind [`Sim::shutdown`] raises inside a parked process.
struct ShutdownSignal;

/// Where a process stands, and what it leaves for its handle.
struct Baton {
    /// [`RUNNING`], [`FINISHED`], or the sequence of the wait the process
    /// is parked on.
    state: u64,
    /// The sequence the next [`ProcessCtx::prepare_wait`] hands out.
    next_wait_seq: u64,
    /// The body's panic, kept for the [`ProcessHandle`] owner to rethrow.
    panic_payload: Option<Box<dyn Any + Send>>,
}

pub(crate) struct ProcessRecord {
    pub(crate) pid: ProcessId,
    pub(crate) name: String,
    pub(crate) cpu: Option<CpuId>,
    baton: Confined<Baton>,
    /// The body on its own stack. Touched only while holding the baton.
    co: Coroutine,
}

// SAFETY: `co` is the only field that is not `Send + Sync`, and only the
// holder of the baton touches it: a resumer after `take_baton` moved the
// baton from parked to RUNNING, or the body it switched onto. The baton is
// a `Confined` cell, so it is taken only on the thread that built the
// world, and nothing else takes it until the body has parked again or
// finished; `co` is therefore reached from that one thread, by one holder
// at a time. A record leaves that thread only inside its whole `Sim`, which
// is moved, never shared: the body closure is `Send`, and a suspended body
// holds nothing bound to a thread across its wait (module docs).
unsafe impl Send for ProcessRecord {}
// SAFETY: as above.
unsafe impl Sync for ProcessRecord {}

impl ProcessRecord {
    pub(crate) fn new(
        sim: &Sim,
        pid: ProcessId,
        name: String,
        cpu: Option<CpuId>,
        body: Box<dyn FnOnce() + Send>,
    ) -> Self {
        ProcessRecord {
            pid,
            name,
            cpu,
            baton: sim.confined(Baton {
                // Token sequence 0 is the spawn wake.
                state: 0,
                next_wait_seq: 1,
                panic_payload: None,
            }),
            co: Coroutine::new(body),
        }
    }

    /// Event-loop side: if the process still waits on `token`, run it on
    /// the calling thread until it parks again or finishes.
    pub(crate) fn try_resume(&self, token: WaitToken) {
        // A refused baton is a stale or mistimed wake: the process moved
        // on. Drop it.
        if self.take_baton(token.seq) {
            self.run_body();
        }
    }

    /// Move the baton from parked on wait `seq` to RUNNING; false, having
    /// changed nothing, if the process is not parked there.
    fn take_baton(&self, seq: u64) -> bool {
        let mut baton = self.baton.lock();
        let parked_there = baton.state == seq;
        if parked_there {
            baton.state = RUNNING;
        }
        parked_there
    }

    /// Switch onto the body until it parks (it publishes that wait itself)
    /// or finishes (published here). Requires the baton (`take_baton`
    /// succeeded).
    fn run_body(&self) {
        // SAFETY: the caller holds the baton, so nothing else touches `co`,
        // and the body is not running (it would hold the baton). Records
        // are only ever built inside the `Arc` that the engine's process
        // table keeps, so `co` never moves.
        if let Resumed::Finished(payload) = unsafe { self.co.resume() } {
            let mut baton = self.baton.lock();
            // A shutdown unwind is a quiet teardown; anything else is kept
            // for the `ProcessHandle` owner to rethrow.
            baton.panic_payload = payload.filter(|p| !p.is::<ShutdownSignal>());
            baton.state = FINISHED;
        }
    }

    /// Body side: hand the thread back to the event loop until a wake
    /// carrying `token` arrives. Once `sim` is shutting down, unwinds the
    /// body instead (with a payload the panic hook never sees).
    fn park(&self, token: WaitToken, sim: &Sim) {
        if !sim.shutting_down() {
            {
                // Published before the switch; nothing runs in between, so
                // no wake can find the process still RUNNING.
                let mut baton = self.baton.lock();
                debug_assert_eq!(baton.state, RUNNING);
                baton.state = token.seq;
            }
            // SAFETY: `park` is reached only through this process's own
            // `ProcessCtx`, which exists only on the body's stack and is
            // neither `Send` nor `'static`.
            unsafe { self.co.suspend() };
        }
        if sim.shutting_down() {
            std::panic::resume_unwind(Box::new(ShutdownSignal));
        }
    }

    /// [`Sim::shutdown`] side, with the shutdown flag already set: finish
    /// the process on the calling thread. A parked body is resumed so that
    /// `park` unwinds it and its locals' destructors run; a body that never
    /// started is dropped unrun. Running or finished processes are left be.
    pub(crate) fn unwind_if_parked(&self) {
        let seq = self.baton.lock().state;
        if seq >= FINISHED || !self.take_baton(seq) {
            return;
        }
        if self.co.is_unstarted() {
            self.co.discard();
        }
        // Unwinds a parked body; a discarded one reports finished at once.
        self.run_body();
    }

    pub(crate) fn is_blocked(&self) -> bool {
        self.baton.lock().state < FINISHED
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.baton.lock().state == FINISHED
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.baton.lock().panic_payload.take()
    }

    fn fresh_token(&self) -> WaitToken {
        let mut baton = self.baton.lock();
        let seq = baton.next_wait_seq;
        baton.next_wait_seq += 1;
        WaitToken { pid: self.pid, seq }
    }
}

/// The API a simulated process uses to interact with virtual time. Passed to
/// the process body by [`Sim::spawn`].
pub struct ProcessCtx {
    sim: Sim,
    record: Arc<ProcessRecord>,
    /// Not `Send`: `wait` switches stacks, which is only sound from the
    /// process's own.
    _on_own_stack: PhantomData<*mut ()>,
}

impl ProcessCtx {
    pub(crate) fn new(sim: Sim, record: Arc<ProcessRecord>) -> Self {
        ProcessCtx {
            sim,
            record,
            _on_own_stack: PhantomData,
        }
    }

    /// The simulation this process belongs to.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.record.pid
    }

    /// The CPU this process was bound to at spawn, if any.
    pub fn cpu(&self) -> Option<CpuId> {
        self.record.cpu
    }

    /// Name given at spawn.
    pub fn name(&self) -> &str {
        &self.record.name
    }

    /// Mint a token for an upcoming wait. Register it with whatever will
    /// signal you (a waiter list, [`Sim::wake_in`]) **before** calling
    /// [`ProcessCtx::wait`]. Tokens are single-use.
    pub fn prepare_wait(&self) -> WaitToken {
        self.record.fresh_token()
    }

    /// Hand the thread back to the event loop and park until [`Sim::wake`]
    /// is called with `token`. No CPU time is charged (a blocked process is
    /// idle).
    pub fn wait(&mut self, token: WaitToken) {
        self.record.park(token, &self.sim);
    }

    /// Like [`ProcessCtx::wait`], but models a *polling* wait: the entire
    /// blocked interval is charged to this process's CPU as busy time (a
    /// spin loop burns the CPU for as long as it waits). Returns the waited
    /// duration.
    pub fn wait_polling(&mut self, token: WaitToken) -> SimDuration {
        let start = self.now();
        self.wait(token);
        let elapsed = self.now() - start;
        if let Some(cpu) = self.record.cpu {
            self.sim.charge(cpu, elapsed);
        }
        elapsed
    }

    /// Park for `d` of idle (uncharged) virtual time. When nothing else is
    /// queued at or before `now + d`, the wake would be the next event
    /// anyway: the clock moves and the body carries on without leaving its
    /// stack (the same instant, event count and hook call, no queue entry).
    pub fn sleep(&mut self, d: SimDuration) {
        if self.sim.wake_in_place(d) {
            return;
        }
        let token = self.prepare_wait();
        self.sim.wake_in(d, token);
        self.wait(token);
    }

    /// Consume `d` of *busy* CPU time: advances the clock by `d` and charges
    /// this process's CPU (if bound). This is how host-side instruction
    /// costs are modeled.
    pub fn busy(&mut self, d: SimDuration) {
        if let Some(cpu) = self.record.cpu {
            self.sim.charge(cpu, d);
        }
        self.sleep(d);
    }

    /// Park behind every event already queued at the current instant, then
    /// continue (at once, in place, when there is none).
    pub fn yield_now(&mut self) {
        if self.sim.wake_in_place(SimDuration::ZERO) {
            return;
        }
        let token = self.prepare_wait();
        self.sim.wake(token);
        self.wait(token);
    }
}

/// Handle returned by [`Sim::spawn`]; yields the process result after the
/// simulation has run.
pub struct ProcessHandle<T> {
    record: Arc<ProcessRecord>,
    slot: Arc<Confined<Option<T>>>,
}

impl<T: Send + 'static> ProcessHandle<T> {
    pub(crate) fn new(record: Arc<ProcessRecord>, slot: Arc<Confined<Option<T>>>) -> Self {
        ProcessHandle { record, slot }
    }

    /// The process id.
    pub fn pid(&self) -> ProcessId {
        self.record.pid
    }

    /// True once the process body has returned or unwound.
    pub fn is_finished(&self) -> bool {
        self.record.is_finished()
    }

    /// Take the process's return value. Panics with the process's panic
    /// payload if the body panicked; returns `None` if it has not finished
    /// (or the value was already taken).
    pub fn take_result(&self) -> Option<T> {
        if let Some(payload) = self.record.take_panic() {
            std::panic::resume_unwind(payload);
        }
        self.slot.lock().take()
    }

    /// Take the result, panicking if the process did not complete.
    pub fn expect_result(&self) -> T {
        self.take_result().unwrap_or_else(|| {
            panic!(
                "process '{}' did not produce a result (blocked or result already taken)",
                self.record.name
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{thread_events, EventClass, SchedStats};
    use crate::time::SimDuration;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};

    #[test]
    fn process_sleep_advances_virtual_time() {
        let sim = Sim::new();
        let h = sim.spawn("sleeper", None, |ctx| {
            let t0 = ctx.now();
            ctx.sleep(SimDuration::from_micros(42));
            ctx.now() - t0
        });
        sim.run_to_completion();
        assert_eq!(h.expect_result(), SimDuration::from_micros(42));
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, start_us, step_us) in [("a", 0u64, 10u64), ("b", 5, 10)] {
            let log = Arc::clone(&log);
            sim.spawn(name, None, move |ctx| {
                ctx.sleep(SimDuration::from_micros(start_us));
                for i in 0..3 {
                    log.lock().push((ctx.name().to_string(), i, ctx.now()));
                    ctx.sleep(SimDuration::from_micros(step_us));
                }
            });
        }
        sim.run_to_completion();
        let log = log.lock();
        let order: Vec<&str> = log.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(order, vec!["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn busy_charges_cpu_and_advances_clock() {
        let sim = Sim::new();
        let cpu = sim.add_cpu("node0");
        sim.spawn("worker", Some(cpu), |ctx| {
            ctx.busy(SimDuration::from_micros(7));
            ctx.sleep(SimDuration::from_micros(3)); // idle: not charged
            ctx.busy(SimDuration::from_micros(5));
        });
        let report = sim.run_to_completion();
        assert_eq!(sim.cpu_busy(cpu), SimDuration::from_micros(12));
        assert_eq!(report.end_time.as_nanos(), 15_000);
    }

    #[test]
    fn wait_and_wake_with_token() {
        let sim = Sim::new();
        let shared: Arc<Mutex<Option<WaitToken>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&shared);
        let h = sim.spawn("waiter", None, move |ctx| {
            let token = ctx.prepare_wait();
            *s2.lock() = Some(token);
            ctx.wait(token);
            ctx.now()
        });
        let s3 = Arc::clone(&shared);
        sim.call_in(SimDuration::from_micros(100), move |s| {
            let token = s3.lock().take().expect("waiter registered");
            s.wake(token);
        });
        sim.run_to_completion();
        assert_eq!(h.expect_result(), SimTime::from_nanos(100_000));
    }

    #[test]
    fn stale_wake_is_ignored() {
        let sim = Sim::new();
        let shared: Arc<Mutex<Vec<WaitToken>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&shared);
        let h = sim.spawn("waiter", None, move |ctx| {
            let t1 = ctx.prepare_wait();
            s2.lock().push(t1);
            ctx.wait(t1);
            let first = ctx.now();
            // Second wait: the duplicate wake for t1 must not resume this.
            ctx.sleep(SimDuration::from_micros(50));
            (first, ctx.now())
        });
        let s3 = Arc::clone(&shared);
        sim.call_in(SimDuration::from_micros(10), move |s| {
            let token = s3.lock()[0];
            s.wake(token);
            s.wake(token); // duplicate — must be dropped
        });
        sim.run_to_completion();
        let (first, second) = h.expect_result();
        assert_eq!(first, SimTime::from_nanos(10_000));
        assert_eq!(second, SimTime::from_nanos(60_000));
    }

    #[test]
    fn wait_polling_charges_busy_time() {
        let sim = Sim::new();
        let cpu = sim.add_cpu("node0");
        let shared: Arc<Mutex<Option<WaitToken>>> = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&shared);
        sim.spawn("poller", Some(cpu), move |ctx| {
            let token = ctx.prepare_wait();
            *s2.lock() = Some(token);
            let waited = ctx.wait_polling(token);
            assert_eq!(waited, SimDuration::from_micros(30));
        });
        let s3 = Arc::clone(&shared);
        sim.call_in(SimDuration::from_micros(30), move |s| {
            let t = s3.lock().take().unwrap();
            s.wake(t);
        });
        sim.run_to_completion();
        assert_eq!(sim.cpu_busy(cpu), SimDuration::from_micros(30));
    }

    #[test]
    fn deadlocked_process_is_reported() {
        let sim = Sim::new();
        sim.spawn("stuck", None, |ctx| {
            let token = ctx.prepare_wait();
            ctx.wait(token); // nobody will ever wake us
        });
        let report = sim.run();
        assert_eq!(report.blocked, vec!["stuck".to_string()]);
        sim.shutdown();
    }

    #[test]
    fn a_process_body_runs_on_the_thread_that_built_its_world() {
        // Built, spawned and run on a thread of its own: that thread, not
        // the test's, hosts every body, before and after each wait.
        let (builder, ran_on) = std::thread::spawn(|| {
            let sim = Sim::new();
            let handles: Vec<_> = (0..64)
                .map(|i| {
                    sim.spawn(format!("p{i}"), None, move |ctx| {
                        let first = std::thread::current().id();
                        ctx.sleep(SimDuration::from_micros(i % 5 + 1));
                        (first, std::thread::current().id())
                    })
                })
                .collect();
            sim.run_to_completion();
            let ran_on: Vec<_> = handles.iter().map(|h| h.expect_result()).collect();
            (std::thread::current().id(), ran_on)
        })
        .join()
        .expect("builder thread");
        assert_ne!(builder, std::thread::current().id());
        assert!(ran_on.iter().all(|&ids| ids == (builder, builder)));
    }

    #[test]
    fn a_handle_read_from_a_foreign_thread_panics() {
        let sim = Sim::new();
        let h = sim.spawn("p", None, |ctx| ctx.sleep(SimDuration::from_micros(1)));
        sim.run_to_completion();
        std::thread::scope(|scope| {
            let payload = scope
                .spawn(|| h.is_finished())
                .join()
                .expect_err("a foreign read of the baton must panic");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"a world is touched only by the thread that built it")
            );
        });
        assert!(h.is_finished(), "the owning thread still reads it");
    }

    /// Records the thread it is dropped on.
    struct DropProbe(Arc<Mutex<Vec<std::thread::ThreadId>>>);
    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.lock().push(std::thread::current().id());
        }
    }

    #[test]
    fn shutdown_unwinds_parked_processes_on_the_calling_thread() {
        let sim = Sim::new();
        let drops = Arc::new(Mutex::new(Vec::new()));
        let (parked, unstarted) = (DropProbe(drops.clone()), DropProbe(drops.clone()));
        let stuck = sim.spawn("stuck", None, move |ctx| {
            let _local = parked;
            let token = ctx.prepare_wait();
            ctx.wait(token); // nobody will ever wake us
            unreachable!("woken only to unwind");
        });
        let done = sim.spawn("done", None, |ctx| ctx.sleep(SimDuration::from_micros(1)));
        assert_eq!(sim.run().blocked, vec!["stuck".to_string()]);
        // Spawned after the last run: its body never starts.
        let late = sim.spawn("late", None, move |_ctx| drop(unstarted));

        assert!(drops.lock().is_empty());
        sim.shutdown();
        let here = std::thread::current().id();
        assert_eq!(*drops.lock(), vec![here, here]);
        assert!(stuck.is_finished() && late.is_finished());
        assert!(stuck.take_result().is_none(), "a shutdown is not a panic");
        done.expect_result();

        sim.shutdown();
        assert!(sim.run().is_quiescent());
        assert_eq!(drops.lock().len(), 2);
    }

    #[test]
    fn shutdown_reaches_processes_spawned_by_an_unwinding_one() {
        struct SpawnOnDrop(Sim, Arc<Mutex<Vec<std::thread::ThreadId>>>);
        impl Drop for SpawnOnDrop {
            fn drop(&mut self) {
                let probe = DropProbe(self.1.clone());
                self.0.spawn("orphan", None, move |_ctx| drop(probe));
            }
        }
        let sim = Sim::new();
        let drops = Arc::new(Mutex::new(Vec::new()));
        let guard = SpawnOnDrop(sim.clone(), drops.clone());
        sim.spawn("stuck", None, move |ctx| {
            let _guard = guard;
            let token = ctx.prepare_wait();
            ctx.wait(token);
        });
        sim.run();
        sim.shutdown();
        assert_eq!(drops.lock().len(), 1, "the orphan's body was dropped");
        assert!(sim.run().is_quiescent());
    }

    /// This process's mapped address space in KiB (`VmSize`).
    fn vm_size_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let line = status.lines().find(|l| l.starts_with("VmSize:"));
        let digits = line.expect("VmSize line").split_whitespace().nth(1);
        digits
            .expect("VmSize value")
            .parse()
            .expect("VmSize in KiB")
    }

    #[test]
    fn stacks_are_released_when_a_process_finishes() {
        const PROCESSES: u64 = 10_000;
        let sim = Sim::new();
        let finished = Arc::new(AtomicU64::new(0));
        let before = vm_size_kib();
        let (sim2, finished2) = (sim.clone(), Arc::clone(&finished));
        sim.spawn("driver", None, move |ctx| {
            for i in 0..PROCESSES {
                let finished = Arc::clone(&finished2);
                sim2.spawn(format!("p{i}"), None, move |ctx| {
                    ctx.sleep(SimDuration::from_micros(1));
                    finished.fetch_add(1, AtomicOrdering::Relaxed);
                });
                ctx.sleep(SimDuration::from_micros(2));
            }
        });
        sim.run_to_completion();
        assert_eq!(finished.load(AtomicOrdering::Relaxed), PROCESSES);
        // The `Sim` (and every record) is still alive here. Had the stacks
        // lived as long, this would read PROCESSES x STACK_BYTES = 10 GiB;
        // tests running beside this one map a few stacks of their own.
        let grown_kib = vm_size_kib().saturating_sub(before);
        let leaked_kib = PROCESSES * (crate::coroutine::STACK_BYTES as u64 / 1024);
        assert!(
            grown_kib < leaked_kib / 10,
            "address space grew by {grown_kib} KiB over {PROCESSES} finished processes"
        );
    }

    #[test]
    fn process_panics_propagate_through_handle() {
        let sim = Sim::new();
        let h = sim.spawn("panicky", None, |_ctx| -> () {
            panic!("boom from inside the simulation");
        });
        sim.run();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.take_result()));
        assert!(err.is_err());
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in ["first", "second"] {
            let log = Arc::clone(&log);
            sim.spawn(name, None, move |ctx| {
                for i in 0..2 {
                    log.lock().push(format!("{}:{}", ctx.name(), i));
                    ctx.yield_now();
                }
            });
        }
        sim.run_to_completion();
        assert_eq!(
            *log.lock(),
            vec!["first:0", "second:0", "first:1", "second:1"]
        );
    }

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    /// `(fired, user fired, dead_popped, queued wakes)` of a world's books.
    fn books(stats: &SchedStats) -> (u64, u64, u64, u64) {
        let user = stats.class(EventClass::User).fired;
        (stats.fired, user, stats.dead_popped, stats.pool.wakes)
    }

    type Log = Arc<Mutex<Vec<(&'static str, SimTime)>>>;

    #[test]
    fn an_event_due_at_the_wake_instant_runs_before_the_sleeper_resumes() {
        let sim = Sim::new();
        let log: Log = Arc::default();
        let l = Arc::clone(&log);
        sim.spawn("sleeper", None, move |ctx| {
            let l2 = Arc::clone(&l);
            ctx.sim().call_in_as(EventClass::Fabric, ns(10), move |s| {
                l2.lock().push(("event", s.now()))
            });
            // Queued first, so it pops first: the wake must be queued too.
            ctx.sleep(ns(10));
            l.lock().push(("sleeper", ctx.now()));
        });
        let report = sim.run_to_completion();
        let at10 = SimTime::from_nanos(10);
        assert_eq!(*log.lock(), vec![("event", at10), ("sleeper", at10)]);
        // Spawn wake, the event and the queued wake.
        assert_eq!(books(&report.sched), (3, 2, 0, 2));
        assert_eq!(report.sched.class(EventClass::Fabric).fired, 1);
        assert_eq!(report.events, 3);
    }

    #[test]
    fn an_earlier_event_runs_first_and_a_lone_sleep_fires_in_place() {
        let before = thread_events();
        let sim = Sim::new();
        let log: Log = Arc::default();
        let l = Arc::clone(&log);
        sim.spawn("sleeper", None, move |ctx| {
            let l2 = Arc::clone(&l);
            ctx.sim().call_in_as(EventClass::Firmware, ns(5), move |s| {
                l2.lock().push(("event", s.now()))
            });
            ctx.sleep(ns(10));
            l.lock().push(("sleeper", ctx.now()));
            // Nothing else is queued: this wake fires without a queue entry.
            ctx.sleep(ns(10));
            l.lock().push(("sleeper", ctx.now()));
        });
        let report = sim.run_to_completion();
        let at = SimTime::from_nanos;
        assert_eq!(
            *log.lock(),
            vec![("event", at(5)), ("sleeper", at(10)), ("sleeper", at(20))]
        );
        // Spawn wake, the event, one queued and one in-place wake: every
        // logical event counted, two wakes queued.
        assert_eq!(books(&report.sched), (4, 3, 0, 2));
        assert_eq!((report.events, thread_events() - before), (4, 4));
        assert_eq!(report.end_time, at(20));
    }

    #[test]
    fn a_cancelled_timer_due_by_the_wake_is_reaped_before_the_sleeper_resumes() {
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        sim.spawn("sleeper", None, move |ctx| {
            let sim = ctx.sim().clone();
            let arm = |at: u64| sim.timer_in(EventClass::Retransmit, ns(at), |_| {});
            // Cancelled entries at and before the wake's instant still sit
            // at the head of the queue: they are reaped, then the wake pops.
            assert!(arm(5).cancel() && arm(10).cancel());
            ctx.sleep(ns(10));
            s2.lock()
                .push((ctx.now(), ctx.sim().sched_stats().dead_popped));
            // One strictly later does not hold the wake up; it is reaped
            // when it surfaces, after the sleeper is done.
            assert!(arm(100).cancel());
            ctx.sleep(ns(10));
            s2.lock()
                .push((ctx.now(), ctx.sim().sched_stats().dead_popped));
        });
        let report = sim.run_to_completion();
        let at = SimTime::from_nanos;
        assert_eq!(*seen.lock(), vec![(at(10), 2), (at(20), 2)]);
        // Spawn wake, one queued and one in-place wake; three reaped.
        assert_eq!(books(&report.sched), (3, 3, 3, 2));
        assert_eq!(report.sched.class(EventClass::Retransmit).dead_popped, 3);
        assert_eq!(report.end_time, at(20));
    }

    #[test]
    fn the_event_hook_sees_a_wake_fired_in_place_as_a_user_pop() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        sim.set_event_hook(Some(Arc::new(move |at, class| l.lock().push((at, class)))));
        sim.spawn("sleeper", None, |ctx| {
            ctx.sleep(ns(7)); // in place
            ctx.sim().call_in_as(EventClass::Doorbell, ns(3), |_| {});
            ctx.sleep(ns(5)); // queued behind the doorbell
            ctx.yield_now(); // in place: nothing else at 12
        });
        let report = sim.run_to_completion();
        let (at, user) = (SimTime::from_nanos, EventClass::User);
        assert_eq!(
            *log.lock(),
            vec![
                (at(0), user),
                (at(7), user),
                (at(10), EventClass::Doorbell),
                (at(12), user),
                (at(12), user),
            ]
        );
        assert_eq!(books(&report.sched), (5, 4, 0, 2));
    }

    #[test]
    fn a_sleep_after_shutdown_still_unwinds() {
        let sim = Sim::new();
        sim.shutdown();
        let woke = Arc::new(AtomicBool::new(false));
        let w = Arc::clone(&woke);
        // Spawned after the shutdown, so its body runs in the next `run`;
        // its sleep would fire in place, but unwinds instead.
        let h = sim.spawn("late", None, move |ctx| {
            ctx.sleep(ns(10));
            w.store(true, AtomicOrdering::Relaxed);
        });
        let report = sim.run();
        assert!(
            !woke.load(AtomicOrdering::Relaxed),
            "the body ran past its sleep"
        );
        assert!(h.is_finished() && h.take_result().is_none());
        // The sleep queued its wake before it unwound; that wake still
        // fires, and finds the process finished.
        assert_eq!(report.end_time, SimTime::from_nanos(10));
        assert_eq!(books(&report.sched), (2, 2, 0, 2));
    }

    #[test]
    fn many_processes_complete() {
        let sim = Sim::new();
        let handles: Vec<_> = (0..64)
            .map(|i| {
                sim.spawn(format!("p{i}"), None, move |ctx| {
                    ctx.sleep(SimDuration::from_micros(i % 7 + 1));
                    i
                })
            })
            .collect();
        sim.run_to_completion();
        let sum: u64 = handles.iter().map(|h| h.expect_result()).sum();
        assert_eq!(sum, (0..64).sum::<u64>());
    }
}
