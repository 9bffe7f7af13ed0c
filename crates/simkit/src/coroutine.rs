//! Stackful coroutines: the same-thread switch under [`crate::process`].
//!
//! A [`Coroutine`] is a body closure plus a private `mmap`ed stack.
//! [`Coroutine::resume`] switches the calling thread onto that stack and
//! returns when the body either calls [`Coroutine::suspend`] or finishes;
//! nothing else runs in between, and no kernel object is involved. The
//! stack is mapped at the first resume and unmapped the moment the body
//! finishes, so a coroutine that is never run, or has run to the end, owns
//! no memory beyond its struct.
//!
//! **Supported target: x86-64 Linux.** The register switch is System V
//! x86-64 and the `mmap` flag values are Linux's; any other target is a
//! `compile_error!`.
//!
//! Each stack is [`STACK_BYTES`] of address space (pages are committed as
//! they are touched) whose lowest page is an inaccessible guard: a body
//! that overflows its stack faults on the guard and the host process dies
//! with `SIGSEGV` — without Rust's "has overflowed its stack" message,
//! which std prints only for stacks it mapped itself.

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "simkit processes switch stacks with hand-written x86-64 Linux code: port \
     `simkit::coroutine::switch` (the callee-saved register save/restore, and the initial \
     frame `Coroutine::start` lays out for it) to this target"
);

/// Address space mapped per coroutine stack, guard page included. Kept
/// below 2 MiB so a stack can never be backed by a transparent huge page.
pub(crate) const STACK_BYTES: usize = 1 << 20;
/// The x86-64 page size; the guard is one page at the low end.
const GUARD_BYTES: usize = 4096;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}
const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// One mapped stack: `[base, base + GUARD_BYTES)` is the guard, the rest
/// is usable and grows down from [`Stack::top`].
struct Stack {
    base: *mut u8,
}

impl Stack {
    fn map() -> Stack {
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases nothing; the result is checked before use.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                STACK_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "cannot map a {STACK_BYTES}-byte process stack: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack { base: base.cast() };
        // SAFETY: the range is the first page of the mapping made above.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(
            rc == 0,
            "cannot protect a process stack's guard page: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    fn top(&self) -> *mut u8 {
        // SAFETY: one past the end of the mapping `base` points to.
        unsafe { self.base.add(STACK_BYTES) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the range `map` created; `Coroutine` drops a
        // stack only when no frame on it will run again.
        unsafe { munmap(self.base.cast(), STACK_BYTES) };
    }
}

/// Save the callee-saved registers and stack pointer of the caller into
/// `*save`, then load the ones previously saved at `load` and return into
/// that context. `arg` rides through untouched in `rdx`, so a context that
/// starts at [`entry`] receives it as its third argument. `save` may point
/// at the slot `load` was read from: `load` is passed by value.
///
/// The x87 control word and MXCSR are not switched; nothing in this
/// workspace changes them.
///
/// # Safety
/// `load` must be a stack pointer stored by an earlier `switch`, or the
/// initial frame built by [`Coroutine::start`], whose stack is still
/// mapped and on which no thread is executing; `save` must be writable.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8, arg: *const Coroutine) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Words in the frame `switch` pops when it first enters a coroutine: six
/// callee-saved registers, the address of [`entry`], and a null return
/// address that ends backtraces at the coroutine's base.
const INITIAL_FRAME_WORDS: usize = 8;

/// First function on a new coroutine stack, entered by `switch`'s `ret`
/// with `switch`'s own arguments still in their registers.
unsafe extern "C" fn entry(_save: *mut *mut u8, _load: *mut u8, co: *const Coroutine) -> ! {
    // SAFETY: `start` passed a pointer to the coroutine being resumed,
    // which its resumer keeps borrowed until this stack switches back.
    let co = unsafe { &*co };
    let body = co.body.take().expect("coroutine started without a body");
    co.panic.set(catch_unwind(AssertUnwindSafe(body)).err());
    co.finished.set(true);
    // Nothing that needs dropping is left on this stack: the resumer
    // unmaps it as soon as this switch lands.
    // SAFETY: `sp` holds the resumer's context, saved by the `switch` that
    // entered or last resumed this coroutine.
    unsafe { switch(co.sp.as_ptr(), co.sp.get(), ptr::null()) };
    unreachable!("finished coroutine resumed")
}

/// What [`Coroutine::resume`] observed when control came back.
pub(crate) enum Resumed {
    /// The body called [`Coroutine::suspend`] and can be resumed again.
    Suspended,
    /// The body returned (`None`) or unwound with this panic payload. The
    /// stack has been released.
    Finished(Option<Box<dyn Any + Send>>),
}

/// A body closure that runs on its own stack, one `resume` at a time.
///
/// All state is in `Cell`s because the body reaches the same struct (via
/// [`Coroutine::suspend`]) while its resumer is inside `resume`; the two
/// never run at once, they alternate on one thread.
pub(crate) struct Coroutine {
    /// Taken by [`entry`] at the first resume.
    body: Cell<Option<Box<dyn FnOnce() + Send>>>,
    /// Mapped from the first resume until the body finishes.
    stack: Cell<Option<Stack>>,
    /// The stack pointer of whichever side is *not* executing: the body's
    /// while it is suspended, the resumer's while the body runs.
    sp: Cell<*mut u8>,
    finished: Cell<bool>,
    panic: Cell<Option<Box<dyn Any + Send>>>,
}

impl Coroutine {
    pub(crate) fn new(body: Box<dyn FnOnce() + Send>) -> Self {
        Coroutine {
            body: Cell::new(Some(body)),
            stack: Cell::new(None),
            sp: Cell::new(ptr::null_mut()),
            finished: Cell::new(false),
            panic: Cell::new(None),
        }
    }

    /// True until the first [`Coroutine::resume`].
    pub(crate) fn is_unstarted(&self) -> bool {
        self.sp.get().is_null() && !self.finished.get()
    }

    /// Drop the body of a coroutine that was never resumed, without ever
    /// mapping a stack for it.
    pub(crate) fn discard(&self) {
        debug_assert!(self.is_unstarted());
        self.body.take();
        self.finished.set(true);
    }

    /// Map the stack and lay out the frame the first `switch` will pop.
    fn start(&self) {
        let stack = Stack::map();
        // SAFETY: the frame is the top `INITIAL_FRAME_WORDS` words of the
        // fresh, writable, 16-byte-aligned mapping.
        unsafe {
            let frame = stack.top().cast::<usize>().sub(INITIAL_FRAME_WORDS);
            // r15, r14, r13, r12, rbx, rbp (0 ends frame-pointer walks) ...
            frame.write_bytes(0, 6);
            // ... then where `ret` goes, then `entry`'s "return address".
            // `ret` leaves rsp 8 below a 16-byte boundary, exactly as a
            // `call entry` would.
            frame.add(6).write(entry as *const () as usize);
            frame.add(7).write(0);
            self.sp.set(frame.cast());
        }
        self.stack.set(Some(stack));
    }

    /// Run the body until it suspends or finishes.
    ///
    /// # Safety
    /// The caller must have exclusive use of this coroutine for the whole
    /// call — no other thread may touch it, and it must not already be
    /// running (a body must not resume itself). From the first resume until
    /// it finishes the coroutine must stay at one address: its base frame
    /// keeps a pointer to it. A coroutine suspended on one thread may be
    /// resumed on another; its body must therefore hold nothing bound to a
    /// thread (a lock guard, a thread-local reference) across a suspend.
    pub(crate) unsafe fn resume(&self) -> Resumed {
        if self.finished.get() {
            return Resumed::Finished(None);
        }
        if self.is_unstarted() {
            self.start();
        }
        // SAFETY: `sp` is the initial frame or the body's last suspend
        // point, on a stack that stays mapped until `finished`; exclusive
        // use is the caller's obligation.
        unsafe { switch(self.sp.as_ptr(), self.sp.get(), self) };
        if self.finished.get() {
            self.stack.take();
            Resumed::Finished(self.panic.take())
        } else {
            Resumed::Suspended
        }
    }

    /// Switch back to the resumer; returns when next resumed.
    ///
    /// # Safety
    /// Must be called from this coroutine's own body, on its own stack.
    pub(crate) unsafe fn suspend(&self) {
        // SAFETY: while the body runs, `sp` is the resumer's context.
        unsafe { switch(self.sp.as_ptr(), self.sp.get(), ptr::null()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn resume_alternates_with_suspend_and_releases_the_stack() {
        // The body reaches its own coroutine through an address published
        // after construction, as a process does through its record.
        let me = Arc::new(AtomicUsize::new(0));
        let hits = Arc::new(AtomicUsize::new(0));
        let (me2, hits2) = (Arc::clone(&me), Arc::clone(&hits));
        let co = Box::new(Coroutine::new(Box::new(move || {
            let me = me2.load(Ordering::Relaxed) as *const Coroutine;
            for _ in 0..3 {
                hits2.fetch_add(1, Ordering::Relaxed);
                // SAFETY: called from the body of the boxed coroutine
                // `me` points at, which outlives its body.
                unsafe { (*me).suspend() };
            }
        })));
        me.store(&*co as *const Coroutine as usize, Ordering::Relaxed);
        assert!(co.is_unstarted());
        for expect in 1..=3 {
            // SAFETY: single-threaded test, coroutine not running.
            assert!(matches!(unsafe { co.resume() }, Resumed::Suspended));
            assert_eq!(hits.load(Ordering::Relaxed), expect);
        }
        // SAFETY: as above.
        assert!(matches!(unsafe { co.resume() }, Resumed::Finished(None)));
        assert!(co.stack.take().is_none(), "stack released at finish");
        // SAFETY: as above; a finished coroutine is inert.
        assert!(matches!(unsafe { co.resume() }, Resumed::Finished(None)));
    }

    #[test]
    fn body_panic_is_caught_at_the_base() {
        let co = Coroutine::new(Box::new(|| panic!("from the coroutine")));
        // SAFETY: single-threaded test, coroutine not running.
        match unsafe { co.resume() } {
            Resumed::Finished(Some(payload)) => {
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"from the coroutine"));
            }
            _ => panic!("expected a caught panic"),
        }
    }

    #[test]
    fn deep_frames_fit_below_the_guard() {
        fn burn(depth: usize) -> usize {
            let pad = std::hint::black_box([depth as u8; 1024]);
            if depth == 0 {
                pad[0] as usize
            } else {
                burn(depth - 1) + pad[1] as usize
            }
        }
        let co = Coroutine::new(Box::new(|| {
            // At least 64 KiB of the stack, touched page by page.
            std::hint::black_box(burn(64));
        }));
        // SAFETY: single-threaded test, coroutine not running.
        assert!(matches!(unsafe { co.resume() }, Resumed::Finished(None)));
    }

    #[test]
    fn discarding_an_unstarted_coroutine_drops_its_captures() {
        let token = Arc::new(());
        let held = Arc::clone(&token);
        let co = Coroutine::new(Box::new(move || drop(held)));
        co.discard();
        assert_eq!(Arc::strong_count(&token), 1);
        assert!(co.stack.take().is_none(), "no stack was ever mapped");
    }
}
