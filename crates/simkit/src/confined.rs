//! Thread-confined cells: state that only one thread touches at a time, and
//! says so instead of locking.
//!
//! Everything inside a [`Sim`](crate::Sim) — its scheduler, process table
//! and CPU records, and the provider and PCI state other crates hang off it
//! with [`Sim::confined`](crate::Sim::confined) — is touched by one thread
//! for the whole of a [`Sim::run`](crate::Sim::run): the event loop and every
//! process body run on the caller's thread. A mutex per cell paid two
//! `lock`-prefixed instructions per access to learn that nobody else was
//! there. A [`Confined`] cell is owned by a *thread* instead, through the
//! `Affinity` word it shares with its `Sim`, for as long as that thread
//! keeps a guard — or a run — open on it:
//!
//! * `Affinity::enter` compares a per-thread token with `owner` (one
//!   relaxed load). Only when it differs does it claim ownership, with a
//!   `0 → token` Acquire compare-exchange that *waits* while another thread
//!   owns the word. It then bumps the plain `depth` counter.
//!   `Affinity::leave` decrements it and, at zero, stores `0` with Release.
//! * [`Confined::lock`] is `enter` plus a plain `busy` flag, and returns a
//!   `!Send` [`ConfinedGuard`] that derefs to the value — call sites read
//!   exactly as they did with a mutex. A second guard on a cell that already
//!   has one is a panic (the `RefCell` rule) where a mutex would have
//!   deadlocked against itself.
//! * `Sim::run` holds the affinity for the whole run (`Affinity::hold`), so
//!   every access from an event or a process body takes the fast path: a
//!   compare and a few plain stores.
//!
//! This is the shape of std's own `Stdout` (`ReentrantLock<RefCell<_>>`: an
//! owner check, then a plain count), written out because `ReentrantLock` is
//! not stable.
//!
//! # Why this is sound
//!
//! 1. A thread's token is the address of one of its thread-locals, so it is
//!    non-zero and no other *live* thread has it. Only thread `t` ever
//!    stores `t`'s token into `owner` (the compare-exchange in `claim`), and
//!    it stores `0` again only from `leave`. So a thread that reads its own
//!    token in `owner` wrote it and has not released it since: **reading
//!    your own token proves ownership**, and a relaxed load is enough,
//!    because the only writes it must observe are the thread's own.
//! 2. `depth`, every cell's `busy` flag and every cell's value are read and
//!    written only between a successful `enter` and the matching `leave`,
//!    that is by the owner. One owner's Release store of `0` and the next
//!    owner's Acquire exchange order the first's writes before the second's
//!    reads.
//! 3. `busy` is set while a guard exists and `lock` refuses a second one, so
//!    no two `&mut T` to one value coexist on the owning thread either.
//! 4. A thread that does not own the word waits; it never revokes. The
//!    guards and the run's hold are `!Send`, so the `leave` that gives up
//!    ownership runs on the thread that took it.
//!
//! The one thing safe code could do to break (4) is carry a guard across a
//! process wait that resumes on another thread — and `!Send` cannot see a
//! stack switch. That is [`crate::process`]'s standing rule (hold nothing
//! bound to a thread across a `wait`), restated here because a guard is
//! exactly such a thing. Nothing in the workspace does.
//!
//! # What callers can observe
//!
//! One behaviour changed when the mutexes went: **a foreign thread that
//! calls into a `Sim` while another thread is inside its `run` now waits for
//! that run to return**, where it used to interleave with the run between
//! two events. (A relative-time call such as `call_in` reads the clock
//! before it waits, so its delay must cover what is left of that run.)
//! Scheduling onto a `Sim` from many threads *before* a run is supported as
//! before; each call claims and releases the word.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

thread_local! {
    /// Its address is this thread's token.
    static TOKEN: u8 = const { 0 };
    /// Slow-path claims made by this thread; see [`claims`].
    static CLAIMS: Cell<u64> = const { Cell::new(0) };
}

/// Times the calling thread had to claim an `Affinity` it did not already
/// own — the cold path only. Monotonic; take a delta around a workload. A
/// run's events and process bodies make none, which `tests/perf_proxies.rs`
/// gates.
pub fn claims() -> u64 {
    CLAIMS.with(|c| c.get())
}

/// The calling thread's token.
///
/// Never inlined *and* made to perform a volatile read, so that every call
/// happens and computes the thread-local's address afresh. A process body
/// can park under one thread and resume under another (the next `run` may
/// be called from a different thread), and the compiler does not know that a
/// stack switch changes threads. Inlined, the address is computed once and
/// reused across the switch. Out of line but free of side effects, the
/// *call* is treated as a pure function of nothing and hoisted or merged
/// the same way (seen with `inline(never)` alone on rustc 1.95: the
/// resumed-elsewhere test below hangs in release). Either leaves the body
/// with a *stale* token, which spins forever in `claim` or — if a live
/// thread has reused the address — wrongly reads as ownership.
#[inline(never)]
fn token() -> usize {
    TOKEN.with(|t| {
        let p: *const u8 = t;
        // Safety: `p` comes from a live reference to this thread's `TOKEN`.
        let _ = unsafe { p.read_volatile() };
        p as usize
    })
}

/// The ownership word a [`Sim`](crate::Sim) and its confined cells share.
pub(crate) struct Affinity {
    /// `0` when unowned, else the owning thread's token.
    owner: AtomicUsize,
    /// Open guards and holds. The owner's alone.
    depth: UnsafeCell<u32>,
}

// Safety: `owner` is atomic; `depth` is accessed only between `enter` and
// `leave` by the thread that owns the word (module docs, point 2).
unsafe impl Sync for Affinity {}

impl Affinity {
    pub(crate) fn new() -> Arc<Affinity> {
        Arc::new(Affinity {
            owner: AtomicUsize::new(0),
            depth: UnsafeCell::new(0),
        })
    }

    #[inline]
    fn enter(&self) {
        let me = token();
        if self.owner.load(Ordering::Relaxed) != me {
            self.claim(me);
        }
        // Safety: this thread owns the word (point 1), so `depth` is its own.
        unsafe { *self.depth.get() += 1 };
    }

    /// Wait until nobody owns the word, then take it.
    #[cold]
    fn claim(&self, me: usize) {
        CLAIMS.with(|c| c.set(c.get() + 1));
        let mut spins = 0;
        // Acquire pairs with the previous owner's Release in `leave`.
        while self
            .owner
            .compare_exchange_weak(0, me, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                // The owner may be a whole `run` away from leaving.
                std::thread::yield_now();
            }
        }
    }

    #[inline]
    fn leave(&self) {
        // Safety: only reached from a guard or hold whose `enter` made this
        // thread the owner, and both are `!Send` (point 4).
        let depth = unsafe { &mut *self.depth.get() };
        *depth -= 1;
        if *depth == 0 {
            self.owner.store(0, Ordering::Release);
        }
    }

    /// Own the word until the returned guard drops, so that every `lock`
    /// made meanwhile on this thread takes the fast path. RAII: a panicking
    /// event still releases ownership on its way out of `run`.
    pub(crate) fn hold(&self) -> Hold<'_> {
        self.enter();
        Hold {
            affinity: self,
            _not_send: PhantomData,
        }
    }
}

/// A thread's ownership of an [`Affinity`] for a scope; see
/// [`Affinity::hold`].
pub(crate) struct Hold<'a> {
    affinity: &'a Affinity,
    _not_send: PhantomData<*mut ()>,
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        self.affinity.leave();
    }
}

/// A value confined to whichever thread currently owns its
/// [`Sim`](crate::Sim)'s affinity. Made by
/// [`Sim::confined`](crate::Sim::confined); used like a mutex
/// ([`Confined::lock`]); costs no atomic read-modify-write while one thread
/// keeps using it. See the [module docs](self).
///
/// ```
/// let sim = simkit::Sim::new();
/// let cell = sim.confined(41u32);
/// *cell.lock() += 1;
/// assert_eq!(*cell.lock(), 42);
/// fn shared<T: Send + Sync>(_: &T) {}
/// shared(&cell);
/// ```
pub struct Confined<T> {
    affinity: Arc<Affinity>,
    /// True while a guard exists. The owner's alone.
    busy: Cell<bool>,
    value: UnsafeCell<T>,
}

// Safety: `busy` and `value` are accessed only by the thread that owns
// `affinity`, one owner at a time and ordered owner to owner (module docs,
// points 2 and 3); successive owners may be different threads, hence
// `T: Send`, and no `&T` is ever shared between two, hence no `T: Sync`.
unsafe impl<T: Send> Sync for Confined<T> {}

impl<T> Confined<T> {
    pub(crate) fn new(affinity: Arc<Affinity>, value: T) -> Self {
        Confined {
            affinity,
            busy: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Exclusive access to the value. Waits while another thread owns the
    /// `Sim`'s affinity (for instance, is inside its `run`).
    ///
    /// # Panics
    /// If this cell already has a live guard — necessarily on this thread.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> ConfinedGuard<'_, T> {
        self.affinity.enter();
        if self.busy.replace(true) {
            // The outer guard keeps `busy`; give back only this call's
            // `enter`, so that unwinding leaves the count balanced.
            self.affinity.leave();
            panic!("Confined cell locked while a guard on it is alive");
        }
        ConfinedGuard {
            cell: self,
            _not_send: PhantomData,
        }
    }
}

/// RAII access to a [`Confined`] value. Not `Send`: it must be dropped on
/// the thread that made it, and must not be held across a process wait.
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// let sim = simkit::Sim::new();
/// let cell = sim.confined(0u32);
/// send(cell.lock());
/// ```
pub struct ConfinedGuard<'a, T> {
    cell: &'a Confined<T>,
    _not_send: PhantomData<*mut ()>,
}

impl<T> Deref for ConfinedGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: this guard is the cell's only one (`busy`) and its thread
        // owns the cell (point 2), so nothing else reaches the value.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T> DerefMut for ConfinedGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // Safety: as for `deref`, and `&mut self` makes this borrow unique.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T> Drop for ConfinedGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.busy.set(false);
        self.cell.affinity.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration, WaitToken};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    fn owner_of<T>(cell: &Confined<T>) -> usize {
        cell.affinity.owner.load(Ordering::Relaxed)
    }

    #[test]
    fn confined_is_send_and_sync_for_send_values() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        // `Cell` is `Send` but not `Sync`: the cell adds the `Sync`.
        assert_send::<Confined<Cell<u32>>>();
        assert_sync::<Confined<Cell<u32>>>();
        assert_sync::<Sim>();
        assert_send::<Sim>();
    }

    #[test]
    fn second_lock_on_a_held_cell_panics_and_the_cell_survives() {
        let sim = Sim::new();
        let cell = sim.confined(7u32);
        let outer = cell.lock();
        let second = catch_unwind(AssertUnwindSafe(|| drop(cell.lock())));
        assert!(second.is_err(), "a second guard must be refused");
        assert_eq!(*outer, 7, "the outer guard is untouched");
        assert_ne!(owner_of(&cell), 0, "and still owns the affinity");
        drop(outer);
        assert_eq!(owner_of(&cell), 0);
        *cell.lock() += 1;
        assert_eq!(*cell.lock(), 8);
    }

    #[test]
    fn nested_guards_dropped_out_of_order_release_ownership() {
        let sim = Sim::new();
        let (a, b) = (sim.confined(1u32), sim.confined(2u32));
        let before = claims();
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(claims() - before, 1, "the inner lock rides on the outer");
        drop(ga);
        assert_ne!(owner_of(&b), 0, "b's guard still owns the affinity");
        assert_eq!(*a.lock(), 1, "a is free again while b is held");
        drop(gb);
        assert_eq!(owner_of(&a), 0);
    }

    #[test]
    fn increments_from_many_threads_before_any_run_sum_exactly() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        let sim = Sim::new();
        let cell = sim.confined(0u64);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        *cell.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*cell.lock(), THREADS * PER_THREAD);
    }

    #[test]
    fn a_foreign_call_during_a_run_waits_for_the_run_to_return() {
        let sim = Sim::new();
        let (inside_tx, inside_rx) = mpsc::channel();
        let (calling_tx, calling_rx) = mpsc::channel();
        let last_event_ran = Arc::new(AtomicBool::new(false));
        let foreign_fired = Arc::new(AtomicBool::new(false));

        let flag = Arc::clone(&last_event_ran);
        sim.call_in(SimDuration::from_nanos(1), move |sim| {
            inside_tx.send(()).expect("foreign thread listens");
            calling_rx
                .recv()
                .expect("foreign thread announces its call");
            // Scheduled only once the foreign call is (about to be) under
            // way, so a call that interleaved could return before this ran.
            sim.call_in(SimDuration::from_nanos(1), move |_| {
                flag.store(true, Ordering::Relaxed);
            });
        });
        let first = std::thread::scope(|scope| {
            let (sim2, flag, fired) = (
                sim.clone(),
                Arc::clone(&last_event_ran),
                Arc::clone(&foreign_fired),
            );
            let foreign = scope.spawn(move || {
                inside_rx.recv().expect("the run reaches its first event");
                calling_tx.send(()).expect("the event waits for this");
                // `call_in` reads the clock before it waits for the run:
                // the delay must outlast what that run still advances.
                sim2.call_in(SimDuration::from_micros(1), move |_| {
                    fired.store(true, Ordering::Relaxed);
                });
                flag.load(Ordering::Relaxed)
            });
            let first = sim.run();
            assert!(
                foreign.join().expect("foreign thread"),
                "call_in returned before the run's last event had run"
            );
            first
        });
        assert_eq!(first.events, 2, "the foreign event is not part of that run");
        assert!(!foreign_fired.load(Ordering::Relaxed));
        assert_eq!(sim.run().events, 1, "it fires in the next one");
        assert!(foreign_fired.load(Ordering::Relaxed));
    }

    #[test]
    fn a_process_resumed_by_another_threads_run_locks_on_both_sides() {
        // Each lap of the body locks, parks, and is resumed by a fresh
        // thread's `run`. The body is small enough for `lock` to inline
        // into the loop, which is where a token computed once (hoisted out
        // of the loop, across the stack switch) would go stale: in release
        // this test hangs if `token` loses its `inline(never)` or its
        // volatile read.
        const LAPS: u32 = 4;
        let sim = Sim::new();
        let cell = Arc::new(sim.confined(0u32));
        let parked: Arc<parking_lot::Mutex<Option<WaitToken>>> = Arc::default();
        let (cell2, parked2) = (Arc::clone(&cell), Arc::clone(&parked));
        let h = sim.spawn("hopper", None, move |ctx| {
            let mut threads = Vec::new();
            for _ in 0..LAPS {
                *cell2.lock() += 1;
                threads.push(std::thread::current().id());
                let token = ctx.prepare_wait();
                *parked2.lock() = Some(token);
                ctx.wait(token);
            }
            *cell2.lock() += 1;
            threads
        });
        // All runner threads are alive at once, so no two share a token
        // (a joined thread's thread-local block is often handed to the next
        // one spawned); they run strictly one after another.
        let mut runners = Vec::new();
        std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..=LAPS)
                .map(|_| {
                    let (go_tx, go_rx) = mpsc::channel::<()>();
                    let (done_tx, done_rx) = mpsc::channel();
                    let sim = &sim;
                    scope.spawn(move || {
                        go_rx.recv().expect("told to run");
                        sim.run();
                        done_tx.send(std::thread::current().id()).expect("reported");
                        // Stay alive until every lap is over.
                        let _ = go_rx.recv();
                    });
                    (go_tx, done_rx)
                })
                .collect();
            for (lap, (go, done)) in lanes.iter().enumerate() {
                if let Some(token) = parked.lock().take() {
                    sim.wake(token);
                }
                go.send(()).expect("runner listens");
                runners.push(done.recv().expect("runner finished its run"));
                assert_eq!(*cell.lock(), lap as u32 + 1);
                assert_eq!(owner_of(&cell), 0);
            }
        });
        assert_eq!(h.expect_result(), runners[..LAPS as usize]);
    }

    #[test]
    fn run_inside_an_event_keeps_the_outer_runs_ownership() {
        let sim = Sim::new();
        let cell = Arc::new(sim.confined(Vec::new()));
        let c = Arc::clone(&cell);
        sim.call_in(SimDuration::from_nanos(5), move |sim| {
            let c2 = Arc::clone(&c);
            sim.call_in(SimDuration::from_nanos(5), move |_| c2.lock().push("inner"));
            let before = claims();
            assert_eq!(sim.run().events, 1);
            assert_ne!(owner_of(&c), 0, "the inner run released the outer's hold");
            c.lock().push("outer");
            assert_eq!(claims(), before, "nothing inside a run claims");
        });
        assert_eq!(sim.run().events, 1, "the inner run fired the other one");
        assert_eq!(*cell.lock(), vec!["inner", "outer"]);
        assert_eq!(owner_of(&cell), 0);
    }

    #[test]
    fn a_panicking_event_releases_the_runs_ownership() {
        let sim = Sim::new();
        let cell = sim.confined(0u32);
        sim.call_in(SimDuration::from_nanos(1), |_| panic!("event blew up"));
        assert!(catch_unwind(AssertUnwindSafe(|| sim.run())).is_err());
        assert_eq!(owner_of(&cell), 0);
        *cell.lock() += 1;
    }
}
