//! Thread-confined cells: state that only one thread ever touches, and
//! says so instead of locking.
//!
//! A simulated world — a [`Sim`](crate::Sim) and everything built on it —
//! is built, run and dropped on one thread: the event loop and every
//! process body run on the thread that calls [`Sim::run`](crate::Sim::run),
//! and that is the thread that built the world. A mutex per cell paid two
//! `lock`-prefixed instructions per access to learn that nobody else was
//! there. A [`Confined`] cell instead records its owner when it is made —
//! the token of the thread that called [`Sim::new`](crate::Sim::new), which
//! [`Sim::confined`](crate::Sim::confined) copies into every cell — and
//! checks it:
//!
//! * [`Confined::lock`] compares the calling thread's token with `owner`.
//!   On a mismatch it panics: **a world is touched only by the thread that
//!   built it.**
//! * It then sets a plain `busy` flag and returns a `!Send`
//!   [`ConfinedGuard`] that derefs to the value — call sites read exactly as
//!   they did with a mutex. A second guard on a cell that already has one
//!   is a panic (the `RefCell` rule) where a mutex would have deadlocked
//!   against itself.
//!
//! # Why this is sound
//!
//! 1. A thread's token is the address of one of its thread-locals, so no
//!    other *live* thread has it: only the owner gets past the check, and
//!    `busy` and the value are only ever reached from that one thread.
//!    `busy` is set while a guard exists and `lock` refuses a second one, so
//!    no two `&mut T` to one value coexist on the owning thread either.
//! 2. Once the owner has exited, a new thread may be handed its address.
//!    That thread then passes the check, but the owner can no longer
//!    touch the value, and the value reached the new thread by being moved
//!    there — which `T: Send` allows.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

thread_local! {
    /// Its address is this thread's token.
    static TOKEN: u8 = const { 0 };
}

/// The calling thread's token: unique among live threads.
#[inline]
pub(crate) fn token() -> usize {
    TOKEN.with(|t| t as *const u8 as usize)
}

/// A value confined to the thread that built its [`Sim`](crate::Sim). Made
/// by [`Sim::confined`](crate::Sim::confined); used like a mutex
/// ([`Confined::lock`]); costs no atomic read-modify-write. See the
/// [module docs](self).
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
    /// Token of the thread that built the world; the only one let in.
    owner: usize,
    /// True while a guard exists. The owner's alone.
    busy: Cell<bool>,
    value: UnsafeCell<T>,
}

// Safety: `busy` and `value` are reached only through `lock`, which admits
// the owning thread alone (module docs, point 1); a thread that inherits a
// dead owner's token received the value by a move, hence `T: Send` (point
// 2), and no `&T` is ever shared between two threads, hence no `T: Sync`.
unsafe impl<T: Send> Sync for Confined<T> {}

impl<T> Confined<T> {
    pub(crate) fn new(owner: usize, value: T) -> Self {
        Confined {
            owner,
            busy: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Exclusive access to the value.
    ///
    /// # Panics
    /// If called from a thread other than the one that built the cell's
    /// `Sim`, or if this cell already has a live guard.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> ConfinedGuard<'_, T> {
        if token() != self.owner {
            foreign_thread();
        }
        if self.busy.replace(true) {
            panic!("Confined cell locked while a guard on it is alive");
        }
        ConfinedGuard {
            cell: self,
            _not_send: PhantomData,
        }
    }
}

#[cold]
#[track_caller]
fn foreign_thread() -> ! {
    panic!("a world is touched only by the thread that built it")
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
        // Safety: this guard is the cell's only one (`busy`) and lives on
        // the owning thread (point 1), so nothing else reaches the value.
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

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
        drop(outer);
        *cell.lock() += 1;
        assert_eq!(*cell.lock(), 8);
    }

    #[test]
    fn nested_guards_dropped_out_of_order_release_ownership() {
        let sim = Sim::new();
        let (a, b) = (sim.confined(1u32), sim.confined(2u32));
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        assert_eq!(*a.lock(), 1, "a is free again while b is held");
        assert!(catch_unwind(AssertUnwindSafe(|| drop(b.lock()))).is_err());
        drop(gb);
        assert_eq!(*b.lock(), 2, "and b once its guard is gone");
    }

    #[test]
    fn a_foreign_thread_touching_a_world_panics() {
        let sim = Sim::new();
        let cell = sim.confined(0u32);
        std::thread::scope(|scope| {
            let locked = scope.spawn(|| *cell.lock() += 1).join();
            let scheduled = scope
                .spawn(|| sim.call_in(SimDuration::from_nanos(1), |_| {}))
                .join();
            for joined in [locked, scheduled] {
                let payload = joined.expect_err("a foreign touch must panic");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"a world is touched only by the thread that built it")
                );
            }
        });
        assert_eq!(*cell.lock(), 0, "the cell is untouched");
        assert_eq!(sim.run().events, 0, "and nothing was scheduled");
    }

    #[test]
    fn run_inside_an_event_keeps_the_outer_runs_ownership() {
        let sim = Sim::new();
        let cell = Arc::new(sim.confined(Vec::new()));
        let c = Arc::clone(&cell);
        sim.call_in(SimDuration::from_nanos(5), move |sim| {
            let c2 = Arc::clone(&c);
            sim.call_in(SimDuration::from_nanos(5), move |_| c2.lock().push("inner"));
            assert_eq!(sim.run().events, 1);
            c.lock().push("outer");
        });
        assert_eq!(sim.run().events, 1, "the inner run fired the other one");
        assert_eq!(*cell.lock(), vec!["inner", "outer"]);
    }

    #[test]
    fn a_panicking_event_releases_the_runs_ownership() {
        let sim = Sim::new();
        let cell = sim.confined(0u32);
        sim.call_in(SimDuration::from_nanos(1), |_| panic!("event blew up"));
        assert!(catch_unwind(AssertUnwindSafe(|| sim.run())).is_err());
        *cell.lock() += 1;
        assert_eq!(*cell.lock(), 1);
        assert_eq!(sim.run().events, 0, "the engine is usable too");
    }
}
