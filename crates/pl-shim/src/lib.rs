//! Drop-in subset of the `parking_lot` API implemented over `std::sync`.
//!
//! The workspace builds in environments with no registry access, so the
//! external `parking_lot` crate is replaced by this vendored shim (wired via
//! the `package =` rename in the workspace manifest). Only the surface the
//! simulator uses is provided: [`Mutex`] with infallible `lock()` and the
//! matching [`MutexGuard`]. Poisoning is deliberately ignored — a simulated
//! process that panics is unwound by the harness, and the shared state it
//! held is either torn down or inspected by tests that expect the panic.
//!
//! With the default-off `count` feature every `lock()` / `try_lock()` call
//! also bumps a per-thread counter read by `lock_count()`: a simulated world
//! runs on one thread, so the delta around a workload is its exact number of
//! mutex acquisitions — the host-independent cost `tests/perf_proxies.rs`
//! gates. Only the root crate's dev-dependencies turn it on.

#![warn(missing_docs)]

use std::ops::{Deref, DerefMut};

#[cfg(feature = "count")]
thread_local! {
    /// No destructor, so a lock taken during thread teardown still counts
    /// safely.
    static LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `lock()` and `try_lock()` calls made by the calling thread since it
/// started. Monotonic; take a delta around a workload.
#[cfg(feature = "count")]
pub fn lock_count() -> u64 {
    LOCKS.with(|c| c.get())
}

#[inline(always)]
fn count_one() {
    #[cfg(feature = "count")]
    LOCKS.with(|c| c.set(c.get() + 1));
}

/// Mutual exclusion with `parking_lot`'s infallible `lock()` signature.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized + 'a> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Never fails: a poisoned
    /// mutex (panicked holder) is recovered and handed out anyway.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        count_one();
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        count_one();
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: e.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_guards_mutation() {
        let m = Mutex::new(1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: lock() still succeeds.
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(5u32);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().expect("free now"), 5);
    }

    #[cfg(feature = "count")]
    #[test]
    fn lock_count_counts_this_threads_calls() {
        let m = Arc::new(Mutex::new(0u32));
        let before = lock_count();
        drop(m.lock());
        drop(m.try_lock());
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || drop(m2.lock()))
            .join()
            .expect("locker thread");
        assert_eq!(lock_count() - before, 2, "another thread's lock leaked in");
    }
}
