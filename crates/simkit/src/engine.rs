//! The discrete-event scheduler.
//!
//! Events are ordered by `(time, insertion sequence)`, so simultaneous events
//! run in FIFO order and a run is fully deterministic: the interleaving of
//! simulated processes is decided by the event queue alone. A process is a
//! coroutine the event loop switches onto from inside [`Sim::run`] (see
//! [`crate::process`]), so exactly one simulated entity executes at a time
//! and the OS scheduler has no say.
//!
//! # Timer subsystem
//!
//! Scheduled work lives in a **generational slab arena**: the binary heap
//! holds only plain-data entries `(time << 64 | seq, slot, gen, class)`, and the
//! action itself (a callback or a process wake token) sits in a slab slot
//! addressed by `slot` and guarded by `gen`. A slot is a generation, a
//! freelist link, a vtable pointer and [`LARGE_WORDS`] words of raw
//! payload; the rule for what goes through it is **written once, copied
//! once, sized by the closure**:
//!
//! * **Written once.** [`Sim::call_at_as`] / [`Sim::timer_at`] are generic
//!   over the closure, so its captures are copied from the caller's frame
//!   straight into the slot's payload under the scheduler guard, next to a
//!   `&'static` per-type vtable `{size, call, drop}`. There is no
//!   intermediate enum or cell to build, return and move into place.
//! * **Copied once.** [`Sim::run`] copies `size` bytes — not the slot —
//!   out of the payload into a buffer on its own stack and frees the slot
//!   *before* the action runs, so the handler may schedule (reusing that
//!   very slot, or growing and so reallocating the slab) while its captures
//!   sit safely on the stack. The vtable's `call` then consumes them in
//!   place. [`TimerHandle::cancel`] takes the same one copy out and runs
//!   the vtable's `drop` on it after releasing the guard; a `Sim` dropped
//!   with events pending drops each exactly once, in slot order.
//! * **Sized by the closure.** A two-word capture moves two words. Captures
//!   up to [`LARGE_WORDS`]`×8` bytes and no more aligned than a `usize`
//!   live inline, and only outsized or over-aligned ones fall back to a
//!   heap `Box`, whose pointer is then the inline payload. Process wakeups ([`Sim::wake`],
//!   [`Sim::wake_in`], sleeps, timeouts) store the bare [`WaitToken`] the
//!   same way — except a sleep whose own wake would pop next, which fires
//!   in place and stores nothing ([`ProcessCtx::sleep`]). Since slots come
//!   off a freelist, the common schedule→fire cycle performs **zero
//!   allocations**.
//!
//! On top of that layout:
//!
//! * **O(1) cancellation by lazy deletion.** [`Sim::timer_at`] /
//!   [`Sim::timer_in`] return a [`TimerHandle`]; [`TimerHandle::cancel`]
//!   frees the slot (dropping the closure before it returns) and bumps its
//!   generation. The heap entry stays behind and is reaped when it
//!   surfaces — a generation mismatch at pop costs one counter increment,
//!   not a heap rebuild.
//! * **Accounting.** Every event carries an [`EventClass`] tag, and the
//!   scheduler tallies fired / cancelled / dead-popped counts per class in
//!   [`SchedStats`], surfaced through [`RunReport`] and [`Sim::sched_stats`].
//!   Allocator churn is tallied too: [`PoolStats`] counts inline vs. boxed
//!   closures and freelist hits vs. slab growth.
//!
//! Determinism is unchanged: `seq` is still assigned under the scheduler
//! guard at push time, and `(time, seq)` ordering is exactly the pre-slab
//! semantics — cancellation does not reorder survivors. [`Sim::run`] pops
//! the heap one event at a time. (PRs 2–16 drained each same-timestamp
//! cohort into a side queue first; the scheduler state is entered per pop
//! either way, and the suite's mean cohort measured 1.2 events, so the
//! queue cost every event a push and a pop and saved nothing.)
//!
//! # Threads
//!
//! A `Sim` belongs to the thread that built it: [`Sim::new`] records that
//! thread's token, and everything the engine changes while it runs — the
//! scheduler, the process table, the CPU busy times, the event hook and
//! the shutdown flag — is one [`Confined`] cell (`EngineState`) that checks
//! it. Every `.lock()` below — from the loop, an event or a process body —
//! is then a compare and a re-entrancy flag, with no atomic operation, and
//! the same `.lock()` from any other thread panics. [`crate::confined`] has
//! the argument. Each event borrows the cell once to pop, move the clock
//! and fetch the event hook, and releases it before the hook or the action
//! runs, so either may call any `Sim` method.
//!
//! The clock mirror beside the cell is the engine's one atomic: every layer
//! reads [`Sim::now`] many times per event, and a relaxed load there costs
//! less than a thread check. Only the owning thread ever stores to it.
//!
//! The erased payloads are this module's only `unsafe`: everything that
//! reads or writes one is below, between `erase` and [`Sim::run`].

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Weak};

use crate::confined::{token, Confined};
use crate::cpu::CpuId;
use crate::process::{ProcessCtx, ProcessHandle, ProcessId, ProcessRecord, WaitToken};
use crate::time::{SimDuration, SimTime};

/// A scheduled callback: runs inside [`Sim::run`] with a `&Sim` handle.
pub type Event = Box<dyn FnOnce(&Sim) + Send + 'static>;

/// What the [`Sim::run`] calls on one thread executed, cumulatively.
#[derive(Clone, Copy)]
struct RunTotals {
    events: u64,
    pool: PoolStats,
    fuse: FuseTally,
}

thread_local! {
    /// This thread's run totals. The parallel suite runner reads them
    /// around each job to report its events per second, arena churn and
    /// fuse ledger without threading `RunReport`s through every
    /// measurement function.
    static THREAD_TOTALS: Cell<RunTotals> = const {
        Cell::new(RunTotals {
            events: 0,
            pool: PoolStats::zero(),
            fuse: FuseTally {
                attempts: 0,
                hits: 0,
                by_cause: [0; 11],
            },
        })
    };
}

/// Total simulation events executed by `Sim::run` calls on the calling
/// thread since it started. Monotonic; take a delta around a workload to
/// attribute events to it.
pub fn thread_events() -> u64 {
    THREAD_TOTALS.get().events
}

/// Cumulative [`PoolStats`] across every `Sim::run` call on the calling
/// thread. Monotonic; take a [`PoolStats::delta_since`] around a workload
/// to attribute arena churn to it.
pub fn thread_pool_stats() -> PoolStats {
    THREAD_TOTALS.get().pool
}

/// Cumulative [`FuseTally`] across every `Sim::run` call on the calling
/// thread. Monotonic; take a [`FuseTally::delta_since`] around a workload
/// to attribute fuse hits and de-fuse causes to it.
pub fn thread_fuse_stats() -> FuseTally {
    THREAD_TOTALS.get().fuse
}

/// Which component of the simulated system an event belongs to.
///
/// Used purely for accounting: [`SchedStats`] tallies fired / cancelled /
/// dead-popped events per class, so a run report can say *what* the
/// scheduler spent its time on (fabric hops vs. firmware scans vs.
/// retransmit timers, …).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum EventClass {
    /// SAN frame propagation and delivery.
    Fabric,
    /// NIC firmware descriptor processing (scans, fetches, translation).
    Firmware,
    /// Doorbell propagation from host to device.
    Doorbell,
    /// Retransmission timers and ACK processing.
    Retransmit,
    /// Completion writes, CQ posts, interrupt delivery.
    Completion,
    /// Everything else: test harness events, process wakeups, sleeps.
    User,
}

impl EventClass {
    /// Every class, in display order.
    pub const ALL: [EventClass; 6] = [
        EventClass::Fabric,
        EventClass::Firmware,
        EventClass::Doorbell,
        EventClass::Retransmit,
        EventClass::Completion,
        EventClass::User,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Fabric => "fabric",
            EventClass::Firmware => "firmware",
            EventClass::Doorbell => "doorbell",
            EventClass::Retransmit => "retransmit",
            EventClass::Completion => "completion",
            EventClass::User => "user",
        }
    }

    /// Dense index into per-class arrays, matching [`EventClass::ALL`] order.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            EventClass::Fabric => 0,
            EventClass::Firmware => 1,
            EventClass::Doorbell => 2,
            EventClass::Retransmit => 3,
            EventClass::Completion => 4,
            EventClass::User => 5,
        }
    }
}

/// Payload capacity (in `usize` words) of a slab slot, and so the largest
/// capture stored inline. Sized from measurement, and since re-measured:
/// with a six-`Arc` provider handle in every datapath closure the biggest
/// recurring captures (fabric delivery, firmware fetch/DMA completions)
/// were 184–216 bytes; now that the handle is two words the suite's
/// largest is 136 bytes (the per-fragment wire handoff and the ACK), and 17
/// words would hold all of it. The class stays at 28 words (224 B): slot
/// size is what `peak_rss_mb` is pinned against, and the margin is what
/// keeps every other workload at a 100% pool hit rate.
pub const LARGE_WORDS: usize = 28;

/// Raw storage for one pending action: a slab slot's payload, and the stack
/// buffer an action is copied into on its way out of the slab.
type Payload = MaybeUninit<[usize; LARGE_WORDS]>;

/// What the scheduler knows about a stored value once its type is erased:
/// how many payload bytes it occupies, how to run it and how to discard it.
/// One per stored type, promoted to `'static` from [`VtableOf`].
struct ActionVtable {
    /// `size_of` the stored value — the bytes a move in or out copies.
    size: usize,
    /// Run the value at the pointer, consuming it.
    ///
    /// # Safety
    /// The pointer must address a valid, owned, `usize`-aligned value of
    /// this vtable's type that is not read or dropped again.
    call: unsafe fn(*mut u8, &Sim),
    /// Drop the value at the pointer without running it; same contract.
    drop: unsafe fn(*mut u8),
}

unsafe fn call_erased<F: FnOnce(&Sim)>(p: *mut u8, sim: &Sim) {
    // Safety: the caller hands over a valid, owned `F` (`ActionVtable::call`).
    (unsafe { p.cast::<F>().read() })(sim)
}

unsafe fn drop_erased<F>(p: *mut u8) {
    // Safety: the caller hands over a valid, owned `F` (`ActionVtable::drop`).
    unsafe { std::ptr::drop_in_place(p.cast::<F>()) }
}

unsafe fn wake_erased(p: *mut u8, sim: &Sim) {
    // Safety: `WAKE` is only ever paired with a `WaitToken` payload.
    sim.dispatch_wake(unsafe { p.cast::<WaitToken>().read() })
}

/// Carrier of the per-closure-type vtable (a generic `static` by other
/// means: `&VtableOf::<F>::VTABLE` is promoted to a `'static` reference).
struct VtableOf<F>(std::marker::PhantomData<F>);

impl<F: FnOnce(&Sim) + Send + 'static> VtableOf<F> {
    const VTABLE: ActionVtable = ActionVtable {
        size: size_of::<F>(),
        call: call_erased::<F>,
        drop: drop_erased::<F>,
    };
}

/// Vtable of a process wake: the payload is the bare [`WaitToken`].
const WAKE: ActionVtable = ActionVtable {
    size: size_of::<WaitToken>(),
    call: wake_erased,
    drop: drop_erased::<WaitToken>,
};

// A slot payload is `usize`-aligned and `LARGE_WORDS` long; the wake token
// must fit it like any inline closure.
const _: () = assert!(
    size_of::<WaitToken>() <= size_of::<Payload>()
        && align_of::<WaitToken>() <= align_of::<usize>()
);

/// How a stored action is tallied in [`PoolStats`].
#[derive(Clone, Copy)]
enum Stored {
    Inline,
    Boxed,
    Wake,
}

/// True when an `F` can live in a slot payload as it is.
const fn fits_inline<F>() -> bool {
    size_of::<F>() <= size_of::<Payload>() && align_of::<F>() <= align_of::<usize>()
}

/// Erase `f` — as it is when it fits a slot payload, behind a `Box`
/// (whose pointer then is the payload) when it is oversized or over-aligned
/// — and hand its vtable, tally class and bytes to `sink`. The value is the
/// sink's from then on: `erase` never drops it, so a sink that does not
/// move the bytes somewhere that will leaks it.
fn erase<F: FnOnce(&Sim) + Send + 'static, R>(
    f: F,
    sink: impl FnOnce(&'static ActionVtable, Stored, *const u8) -> R,
) -> R {
    if fits_inline::<F>() {
        let f = ManuallyDrop::new(f);
        sink(
            &VtableOf::<F>::VTABLE,
            Stored::Inline,
            (&raw const *f).cast(),
        )
    } else {
        let boxed: ManuallyDrop<Event> = ManuallyDrop::new(Box::new(f));
        sink(
            &VtableOf::<Event>::VTABLE,
            Stored::Boxed,
            (&raw const *boxed).cast(),
        )
    }
}

/// Plain-data heap entry; the action lives in the slab, not here.
struct Scheduled {
    /// `(at in ns) << 64 | seq`: the `(time, seq)` order as one integer, so
    /// a heap level costs one branch-free compare.
    key: u128,
    slot: u32,
    gen: u32,
    class: EventClass,
}

impl Scheduled {
    fn new(at: SimTime, seq: u64, slot: u32, gen: u32, class: EventClass) -> Self {
        Scheduled {
            key: (at.as_nanos() as u128) << 64 | seq as u128,
            slot,
            gen,
            class,
        }
    }

    fn at(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

// BinaryHeap is a max-heap; every comparison is inverted so the earliest
// (time, seq) pops first. The heap sifts with `<=`/`>=`, which would
// otherwise go through `partial_cmp` and an `Option<Ordering>` match.
impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
    fn lt(&self, other: &Self) -> bool {
        self.key > other.key
    }
    fn le(&self, other: &Self) -> bool {
        self.key >= other.key
    }
    fn gt(&self, other: &Self) -> bool {
        self.key < other.key
    }
    fn ge(&self, other: &Self) -> bool {
        self.key <= other.key
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// One slab slot. Occupied exactly while `vtable` is `Some`, and then
/// `payload[..vtable.size]` holds a valid, owned value of the vtable's
/// type. The slab code alone touches these fields, which is what the
/// unsafe reads and writes below rely on; and every stored value came
/// through [`erase`], whose `Send` bound is what lets a slot (plain words,
/// as far as the compiler can tell) cross threads with its `Sim`.
struct Slot {
    /// Bumped every time the slot is freed; a heap entry or handle whose
    /// generation no longer matches is stale.
    gen: u32,
    /// Next slot on the freelist while vacant (`NO_SLOT` terminates it).
    next_free: u32,
    vtable: Option<&'static ActionVtable>,
    payload: Payload,
}

impl Drop for Slot {
    fn drop(&mut self) {
        // Simulation teardown with the action still pending: drop it in
        // place, unrun.
        if let Some(vtable) = self.vtable {
            // Safety: occupied, so the payload holds the vtable's type.
            unsafe { (vtable.drop)(self.payload.as_mut_ptr().cast()) }
        }
    }
}

const NO_SLOT: u32 = u32::MAX;

/// Per-[`EventClass`] event counts.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassTally {
    /// Events of this class that executed.
    pub fired: u64,
    /// Timers of this class cancelled before their deadline.
    pub cancelled: u64,
    /// Stale heap entries of this class reaped at pop time.
    pub dead_popped: u64,
}

/// Why a message that attempted the fused fast path fell back to the
/// general event chain. The variants mirror the guard checks in
/// `via::fastpath`; the engine only stores the tally so that the
/// thread-telemetry funnel treats fuse accounting exactly like every other
/// scheduler counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefuseCause {
    /// Fusing disabled (`VIBE_FUSE=0` / `--no-fuse`).
    Disabled,
    /// A fault plan is installed on the fabric.
    FaultWindow,
    /// A tracer is attached.
    TraceAttached,
    /// Link, PCI, rx engine, or NIC ring contended at post time.
    Contention,
    /// Reliable send had no credits available.
    CreditStall,
    /// NIC descriptor ring busy or occupied.
    RingBusy,
    /// Message needs more than one wire fragment.
    MultiFragment,
    /// The fabric is a multi-switch topology (routed hop-by-hop through
    /// buffered switch ports; the fused arithmetic assumes the single
    /// switch traversal).
    Topology,
    /// Switch-scoped fault windows are installed: a route reconvergence
    /// can move any flow's path mid-message, so the precomputed fused
    /// timing cannot be trusted.
    Reroute,
    /// Node-scoped fault windows (node crash / NIC reset) are installed:
    /// a crash wipes NIC and VI state mid-message, so the precomputed
    /// end-to-end fused timing cannot be trusted for any flow.
    NodeFault,
    /// Any other disqualifier (lossy link, RDMA kind, outstanding
    /// in-flight sends, unconnected VI, ...).
    Other,
}

impl DefuseCause {
    /// Every cause, in display order.
    pub const ALL: [DefuseCause; 11] = [
        DefuseCause::Disabled,
        DefuseCause::FaultWindow,
        DefuseCause::TraceAttached,
        DefuseCause::Contention,
        DefuseCause::CreditStall,
        DefuseCause::RingBusy,
        DefuseCause::MultiFragment,
        DefuseCause::Topology,
        DefuseCause::Reroute,
        DefuseCause::NodeFault,
        DefuseCause::Other,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            DefuseCause::Disabled => "disabled",
            DefuseCause::FaultWindow => "fault window",
            DefuseCause::TraceAttached => "trace attached",
            DefuseCause::Contention => "contention",
            DefuseCause::CreditStall => "credit stall",
            DefuseCause::RingBusy => "ring busy",
            DefuseCause::MultiFragment => "multi-fragment",
            DefuseCause::Topology => "topology",
            DefuseCause::Reroute => "reroute",
            DefuseCause::NodeFault => "node fault",
            DefuseCause::Other => "other",
        }
    }

    /// Dense index into per-cause arrays, matching [`DefuseCause::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            DefuseCause::Disabled => 0,
            DefuseCause::FaultWindow => 1,
            DefuseCause::TraceAttached => 2,
            DefuseCause::Contention => 3,
            DefuseCause::CreditStall => 4,
            DefuseCause::RingBusy => 5,
            DefuseCause::MultiFragment => 6,
            DefuseCause::Topology => 7,
            DefuseCause::Reroute => 8,
            DefuseCause::NodeFault => 9,
            DefuseCause::Other => 10,
        }
    }
}

/// Fused-fast-path accounting: how many messages attempted the fused
/// path, how many hit, and why the misses fell back. Lives in
/// [`SchedStats`] so it funnels to the runner exactly like
/// `fired`/`cancelled`.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuseTally {
    /// Messages that evaluated the fuse guard.
    pub attempts: u64,
    /// Messages that ran the fused path end to end.
    pub hits: u64,
    by_cause: [u64; 11],
}

impl FuseTally {
    /// De-fuse count for one cause.
    pub fn cause(&self, cause: DefuseCause) -> u64 {
        self.by_cause[cause.index()]
    }

    /// Iterate `(cause, count)` pairs in display order.
    pub fn causes(&self) -> impl Iterator<Item = (DefuseCause, u64)> + '_ {
        DefuseCause::ALL
            .iter()
            .map(|&c| (c, self.by_cause[c.index()]))
    }

    /// Total de-fused messages across all causes.
    pub fn defused(&self) -> u64 {
        self.by_cause.iter().sum()
    }

    /// Fuse hit rate in `[0,1]`; 1.0 when nothing was attempted.
    pub fn hit_rate(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.hits as f64 / self.attempts as f64
        }
    }

    /// Field-wise accumulate another tally into this one.
    pub fn merge(&mut self, d: &FuseTally) {
        self.attempts += d.attempts;
        self.hits += d.hits;
        for (mine, theirs) in self.by_cause.iter_mut().zip(d.by_cause.iter()) {
            *mine += theirs;
        }
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// monotonic tally.
    pub fn delta_since(&self, earlier: &FuseTally) -> FuseTally {
        let mut by_cause = [0u64; 11];
        for (i, slot) in by_cause.iter_mut().enumerate() {
            *slot = self.by_cause[i] - earlier.by_cause[i];
        }
        FuseTally {
            attempts: self.attempts - earlier.attempts,
            hits: self.hits - earlier.hits,
            by_cause,
        }
    }
}

/// Allocator-churn accounting for the event arena: how scheduled actions
/// were stored and how slab slots were obtained.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Closures stored inline (captures up to [`LARGE_WORDS`] words).
    pub inline: u64,
    /// Closures too big (or too aligned) for a slot payload, heap-boxed.
    pub boxed: u64,
    /// Wake tokens queued (never allocate). A sleep whose wake fires in
    /// place queues nothing and is not counted.
    pub wakes: u64,
    /// Slot requests served by recycling a freed slot.
    pub slot_reused: u64,
    /// Slot requests that grew the slab (one `Vec` push, amortized).
    pub slot_grown: u64,
}

impl PoolStats {
    /// The all-zero value (`Default` usable in `const` position).
    pub const fn zero() -> PoolStats {
        PoolStats {
            inline: 0,
            boxed: 0,
            wakes: 0,
            slot_reused: 0,
            slot_grown: 0,
        }
    }

    /// Field-wise accumulate another tally into this one.
    pub fn merge(&mut self, d: &PoolStats) {
        self.inline += d.inline;
        self.boxed += d.boxed;
        self.wakes += d.wakes;
        self.slot_reused += d.slot_reused;
        self.slot_grown += d.slot_grown;
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// monotonic tally (e.g. [`thread_pool_stats`] taken around a job).
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            inline: self.inline - earlier.inline,
            boxed: self.boxed - earlier.boxed,
            wakes: self.wakes - earlier.wakes,
            slot_reused: self.slot_reused - earlier.slot_reused,
            slot_grown: self.slot_grown - earlier.slot_grown,
        }
    }

    /// Events whose action was stored without any heap allocation.
    pub fn pooled(&self) -> u64 {
        self.inline + self.wakes
    }

    /// Fraction of scheduled events that avoided a per-event allocation,
    /// in `[0,1]`; 1.0 when nothing was scheduled.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pooled() + self.boxed;
        if total == 0 {
            1.0
        } else {
            self.pooled() as f64 / total as f64
        }
    }

    /// Fraction of slot requests served from the freelist, in `[0,1]`.
    pub fn slot_reuse_rate(&self) -> f64 {
        let total = self.slot_reused + self.slot_grown;
        if total == 0 {
            1.0
        } else {
            self.slot_reused as f64 / total as f64
        }
    }
}

/// Cumulative scheduler accounting since the [`Sim`] was created.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct SchedStats {
    /// Total events executed. Includes process wakes fired in place (a
    /// sleep whose own wake was the next event, see [`ProcessCtx::sleep`])
    /// and elided hops folded in by [`Sim::note_elided`], so `fired` counts
    /// *logical* events: the number the general (unfused, all-queued) chain
    /// would have executed. This keeps every class table and events/sec
    /// figure byte-identical whether the fused fast path ran or not.
    pub fired: u64,
    /// Total timers cancelled before firing.
    pub cancelled: u64,
    /// Total stale heap entries reaped at pop time (each a prior cancel).
    pub dead_popped: u64,
    /// Macro-events executed by the fused fast path (each one standing in
    /// for a whole elided sub-chain).
    pub macro_events: u64,
    /// Scheduler hops elided by the fused fast path. Already folded into
    /// `fired`; `fired - events_elided` is the count of events that
    /// executed, popped from the queue or woken in place.
    pub events_elided: u64,
    /// Fused-fast-path attempt/hit/de-fuse ledger.
    pub fuse: FuseTally,
    /// Event-arena churn: inline vs. boxed storage, slot reuse.
    pub pool: PoolStats,
    by_class: [ClassTally; 6],
}

impl SchedStats {
    /// Counts for one event class.
    pub fn class(&self, class: EventClass) -> ClassTally {
        self.by_class[class.index()]
    }

    /// Iterate `(class, tally)` pairs in display order.
    pub fn classes(&self) -> impl Iterator<Item = (EventClass, ClassTally)> + '_ {
        EventClass::ALL
            .iter()
            .map(|&c| (c, self.by_class[c.index()]))
    }

    /// The macro-event ledger's laws, one line per broken law: every fuse
    /// attempt either committed or was charged to exactly one de-fuse
    /// cause, and the engine recorded one macro-event per hit — never
    /// elided events without a fold recording them.
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let fuse = &self.fuse;
        if fuse.attempts != fuse.hits + fuse.defused() {
            violations.push(format!(
                "fuse ledger unbalanced ({} attempts != {} hits + {} defused)",
                fuse.attempts,
                fuse.hits,
                fuse.defused()
            ));
        }
        if self.macro_events != fuse.hits {
            violations.push(format!(
                "{} macro-events recorded but {} fuse hits",
                self.macro_events, fuse.hits
            ));
        }
        violations
    }
}

/// Everything a [`Sim`] changes while it runs, kept in its one confined
/// cell: the scheduler (heap, slab, counters), the process table, the CPU
/// busy times, the event hook and the shutdown flag.
struct EngineState {
    queue: BinaryHeap<Scheduled>,
    seq: u64,
    slots: Vec<Slot>,
    free_head: u32,
    /// Cancelled heap entries that have not been reaped yet.
    dead_in_queue: usize,
    /// Process wakes fired without being queued ([`Sim::wake_in_place`]).
    woken_in_place: u64,
    stats: SchedStats,
    /// Grows only: a record stays at its index, alive, as long as the `Sim`.
    procs: Vec<Arc<ProcessRecord>>,
    /// Busy time of each registered CPU, by [`CpuId`].
    cpus: Vec<SimDuration>,
    /// Observer of each fired event, installed by [`Sim::set_event_hook`].
    hook: Option<EventHook>,
    /// Set by [`Sim::shutdown`]: every later wait unwinds its process.
    shutdown: bool,
}

impl EngineState {
    /// Events counted in `fired` that never went through the queue: wakes
    /// fired in place and hops the fused fast path elided.
    fn unqueued(&self) -> u64 {
        self.woken_in_place + self.stats.events_elided
    }

    /// Copy the `vtable.size` bytes at `src` into a slab slot, once, and
    /// return `(slot, gen)`.
    ///
    /// # Safety
    /// `src` must address a valid value of `vtable`'s type, and the caller
    /// gives that value up: the slot owns it from here on.
    unsafe fn alloc_slot(&mut self, vtable: &'static ActionVtable, src: *const u8) -> (u32, u32) {
        let (idx, slot) = if self.free_head != NO_SLOT {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            assert!(
                slot.vtable.is_none(),
                "freelist head points at an occupied slot"
            );
            self.free_head = slot.next_free;
            self.stats.pool.slot_reused += 1;
            (idx, slot)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                next_free: NO_SLOT,
                vtable: None,
                payload: Payload::uninit(),
            });
            self.stats.pool.slot_grown += 1;
            (idx, self.slots.last_mut().expect("just pushed"))
        };
        // Safety: `src` is readable for `size` bytes (caller); the payload
        // is a distinct allocation at least that long, because only types
        // passing `fits_inline` get a vtable.
        unsafe {
            std::ptr::copy_nonoverlapping(src, slot.payload.as_mut_ptr().cast::<u8>(), vtable.size)
        };
        slot.vtable = Some(vtable);
        (idx, slot.gen)
    }

    /// Copy the action out of an occupied slot into `out`, once, bump the
    /// slot's generation and return it to the freelist. The caller now owns
    /// the value in `out` and must hand it to exactly one of the returned
    /// vtable's `call` / `drop`.
    fn free_slot(&mut self, idx: u32, out: &mut Payload) -> &'static ActionVtable {
        let slot = &mut self.slots[idx as usize];
        let vtable = slot.vtable.take().expect("freeing a vacant slot");
        // Safety: the slot was occupied, so its first `size` bytes are the
        // stored value; `out` is a whole payload, distinct from the slab.
        unsafe {
            std::ptr::copy_nonoverlapping(
                slot.payload.as_ptr().cast::<u8>(),
                out.as_mut_ptr().cast::<u8>(),
                vtable.size,
            )
        };
        slot.gen = slot.gen.wrapping_add(1);
        slot.next_free = self.free_head;
        self.free_head = idx;
        vtable
    }
}

pub(crate) struct SimInner {
    /// Token of the thread that built the simulation: the owner of `state`
    /// and of every cell made by [`Sim::confined`].
    owner: usize,
    /// Mirror of the current virtual time for lock-free reads, stored by
    /// the owning thread under `state`'s borrow whenever an event fires.
    /// `Relaxed` both ways: it publishes no other data (the rest of the
    /// world is in confined cells, which only the owning thread reaches).
    now_ns: AtomicU64,
    state: Confined<EngineState>,
}

/// Observer called once per fired event with its timestamp and class.
///
/// Hooks run inside [`Sim::run`] *after* the event's bookkeeping but
/// *before* its action executes, and never under the engine's borrow — a
/// hook may call any [`Sim`] method, installing or clearing the hook
/// included, but must not block. Tracing layers use
/// this to tally engine activity without the engine depending on them.
pub type EventHook = Arc<dyn Fn(SimTime, EventClass) + Send + Sync>;

/// An event `Sim::pop_live` fired: its time and class, its action's
/// vtable, and the event hook it owes a call.
type Fired = (
    SimTime,
    EventClass,
    &'static ActionVtable,
    Option<EventHook>,
);

/// Handle to a simulation. Cheap to clone; all clones share one virtual
/// world. It belongs to the thread that built it: that thread's
/// [`Sim::run`] executes every event and every process, and a call that
/// reaches its state from any other thread panics (see
/// [`crate::confined`]).
#[derive(Clone)]
pub struct Sim {
    inner: Arc<SimInner>,
}

/// Cancellable reference to one scheduled timer.
///
/// Obtained from [`Sim::timer_at`] / [`Sim::timer_in`]. Holds a weak
/// reference to the simulation, so a handle outliving its `Sim` is inert.
/// Cancellation is O(1): the generation check makes a handle single-shot —
/// once the timer has fired, been cancelled, or its slot reused, `cancel`
/// is a no-op returning `false`.
#[derive(Clone)]
pub struct TimerHandle {
    inner: Weak<SimInner>,
    slot: u32,
    gen: u32,
    class: EventClass,
}

impl std::fmt::Debug for TimerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerHandle")
            .field("slot", &self.slot)
            .field("gen", &self.gen)
            .field("class", &self.class)
            .finish()
    }
}

impl TimerHandle {
    /// Cancel the timer. Returns `true` if this call cancelled a still
    /// pending timer; `false` if it already fired, was already cancelled,
    /// or the simulation is gone. The timer's closure is dropped before
    /// this returns; the heap entry is reaped lazily (counted as
    /// `dead_popped` when it surfaces).
    pub fn cancel(&self) -> bool {
        let Some(inner) = self.inner.upgrade() else {
            return false;
        };
        let mut taken = Payload::uninit();
        let vtable = {
            let mut s = inner.state.lock();
            let Some(slot) = s.slots.get(self.slot as usize) else {
                return false;
            };
            if slot.gen != self.gen || slot.vtable.is_none() {
                return false;
            }
            s.dead_in_queue += 1;
            s.stats.cancelled += 1;
            s.stats.by_class[self.class.index()].cancelled += 1;
            s.free_slot(self.slot, &mut taken)
        };
        // Drop the closure with the scheduler guard released: its captured
        // state may itself schedule or cancel on the way down.
        // Safety: `free_slot` moved the pending value into `taken`; this is
        // its one use.
        unsafe { (vtable.drop)(taken.as_mut_ptr().cast()) };
        true
    }

    /// True while the timer is still scheduled (not fired, not cancelled).
    pub fn is_pending(&self) -> bool {
        let Some(inner) = self.inner.upgrade() else {
            return false;
        };
        let s = inner.state.lock();
        match s.slots.get(self.slot as usize) {
            Some(slot) => slot.gen == self.gen && slot.vtable.is_some(),
            None => false,
        }
    }
}

/// What [`Sim::run`] observed when the event queue drained.
#[derive(Debug)]
pub struct RunReport {
    /// Virtual time when the queue drained.
    pub end_time: SimTime,
    /// Number of events executed by this `run` call.
    pub events: u64,
    /// Names of processes that were still blocked when the queue drained
    /// (non-empty means the simulation deadlocked or was abandoned mid-wait).
    pub blocked: Vec<String>,
    /// Cumulative scheduler accounting (fired / cancelled / dead-popped,
    /// total and per [`EventClass`]) since the [`Sim`] was created.
    pub sched: SchedStats,
}

impl RunReport {
    /// True when every spawned process ran to completion.
    pub fn is_quiescent(&self) -> bool {
        self.blocked.is_empty()
    }

    /// Total events fired since the simulation was created.
    pub fn fired(&self) -> u64 {
        self.sched.fired
    }

    /// Total timers cancelled before firing.
    pub fn cancelled(&self) -> u64 {
        self.sched.cancelled
    }

    /// Total stale heap entries reaped at pop time.
    pub fn dead_popped(&self) -> u64 {
        self.sched.dead_popped
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at time zero.
    pub fn new() -> Self {
        let owner = token();
        let state = EngineState {
            queue: BinaryHeap::new(),
            seq: 0,
            slots: Vec::new(),
            free_head: NO_SLOT,
            dead_in_queue: 0,
            woken_in_place: 0,
            stats: SchedStats::default(),
            procs: Vec::new(),
            cpus: Vec::new(),
            hook: None,
            shutdown: false,
        };
        Sim {
            inner: Arc::new(SimInner {
                owner,
                now_ns: AtomicU64::new(0),
                state: Confined::new(owner, state),
            }),
        }
    }

    /// Wrap `value` in a cell confined to the thread that built this
    /// simulation: free to lock from its events, its process bodies and the
    /// code around its runs, and a panic from any other thread. For model
    /// state that only this world touches. See [`crate::confined`].
    pub fn confined<T>(&self, value: T) -> Confined<T> {
        Confined::new(self.inner.owner, value)
    }

    /// Install (or clear, with `None`) the per-event observer; the next
    /// event to fire is the first it sees (or does not). See [`EventHook`]
    /// for the contract. The disabled path costs one `None` check per
    /// event, under the borrow the event takes anyway.
    pub fn set_event_hook(&self, hook: Option<EventHook>) {
        // The old hook is dropped once the cell is released.
        let _old = std::mem::replace(&mut self.inner.state.lock().hook, hook);
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.inner.now_ns.load(AtomicOrdering::Relaxed))
    }

    /// Insert an action into the arena + heap; returns `(slot, gen)` for
    /// callers that hand out a [`TimerHandle`].
    ///
    /// # Safety
    /// `src` must address a valid value of `vtable`'s type, which the
    /// scheduler owns from here on: the caller must neither use nor drop it.
    unsafe fn push_raw(
        &self,
        at: SimTime,
        class: EventClass,
        vtable: &'static ActionVtable,
        stored: Stored,
        src: *const u8,
    ) -> (u32, u32) {
        debug_assert!(
            at >= self.now(),
            "scheduling into the past: {at:?} < {:?}",
            self.now()
        );
        let mut s = self.inner.state.lock();
        let seq = s.seq;
        s.seq += 1;
        match stored {
            Stored::Inline => s.stats.pool.inline += 1,
            Stored::Boxed => s.stats.pool.boxed += 1,
            Stored::Wake => s.stats.pool.wakes += 1,
        }
        // Safety: forwarded from this function's own contract.
        let (slot, gen) = unsafe { s.alloc_slot(vtable, src) };
        s.queue.push(Scheduled::new(at, seq, slot, gen, class));
        (slot, gen)
    }

    /// Schedule `f`: its captures are written once, straight into a slab
    /// slot (or, oversized or over-aligned, into a `Box` whose pointer is).
    fn push_closure<F: FnOnce(&Sim) + Send + 'static>(
        &self,
        at: SimTime,
        class: EventClass,
        f: F,
    ) -> (u32, u32) {
        erase(f, |vtable, stored, src| {
            // Safety: `erase` passes its value's own vtable and gives the
            // value up to this sink.
            unsafe { self.push_raw(at, class, vtable, stored, src) }
        })
    }

    fn push_wake(&self, at: SimTime, class: EventClass, token: WaitToken) {
        // Safety: `WAKE` is the vtable of a `WaitToken`, which is `Copy`, so
        // the slot's copy is the only one that is ever consumed.
        unsafe { self.push_raw(at, class, &WAKE, Stored::Wake, (&raw const token).cast()) };
    }

    /// Schedule `f` to run at absolute time `at`, inside [`Sim::run`].
    pub fn call_at(&self, at: SimTime, f: impl FnOnce(&Sim) + Send + 'static) {
        self.call_at_as(EventClass::User, at, f);
    }

    /// [`Sim::call_at`] with an explicit [`EventClass`] tag.
    pub fn call_at_as(
        &self,
        class: EventClass,
        at: SimTime,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) {
        self.push_closure(at, class, f);
    }

    /// Schedule `f` to run `delay` from now.
    pub fn call_in(&self, delay: SimDuration, f: impl FnOnce(&Sim) + Send + 'static) {
        self.call_at(self.now() + delay, f);
    }

    /// [`Sim::call_in`] with an explicit [`EventClass`] tag.
    pub fn call_in_as(
        &self,
        class: EventClass,
        delay: SimDuration,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) {
        self.call_at_as(class, self.now() + delay, f);
    }

    /// Schedule `f` at absolute time `at` and return a cancellable
    /// [`TimerHandle`]. Cancelling drops `f` without running it.
    pub fn timer_at(
        &self,
        class: EventClass,
        at: SimTime,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) -> TimerHandle {
        let (slot, gen) = self.push_closure(at, class, f);
        TimerHandle {
            inner: Arc::downgrade(&self.inner),
            slot,
            gen,
            class,
        }
    }

    /// Schedule `f` to run `delay` from now and return a cancellable
    /// [`TimerHandle`].
    pub fn timer_in(
        &self,
        class: EventClass,
        delay: SimDuration,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) -> TimerHandle {
        self.timer_at(class, self.now() + delay, f)
    }

    /// Wake the process waiting on `token` at the current time. Stale tokens
    /// (the process has since moved on) are ignored, so it is always safe to
    /// signal.
    pub fn wake(&self, token: WaitToken) {
        self.push_wake(self.now(), EventClass::User, token);
    }

    /// Wake the process waiting on `token` after `delay` (used for timeouts).
    pub fn wake_in(&self, delay: SimDuration, token: WaitToken) {
        self.push_wake(self.now() + delay, EventClass::User, token);
    }

    /// [`Sim::wake_in`] with an explicit [`EventClass`] tag (e.g. interrupt
    /// delivery accounts as [`EventClass::Completion`]).
    pub fn wake_in_as(&self, class: EventClass, delay: SimDuration, token: WaitToken) {
        self.push_wake(self.now() + delay, class, token);
    }

    /// Spawn a simulated process. `body` runs on its own stack, on the
    /// thread that built this simulation, inside [`Sim::run`] whenever one
    /// of its wakes fires, and never concurrently with the event loop or
    /// another process. `cpu`, when given, is charged by
    /// [`ProcessCtx::busy`] and the `*_charged` waits.
    pub fn spawn<T, F>(
        &self,
        name: impl Into<String>,
        cpu: Option<CpuId>,
        body: F,
    ) -> ProcessHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut ProcessCtx) -> T + Send + 'static,
    {
        let (name, slot) = (name.into(), Arc::new(self.confined(None)));
        let record = {
            let mut s = self.inner.state.lock();
            let pid = ProcessId::new(s.procs.len() as u32);
            let (sim, result) = (self.clone(), Arc::clone(&slot));
            // The body looks its own record up when it first runs, so the
            // record does not have to exist before the closure it owns.
            let on_stack = move || {
                let record = sim.record(pid).expect("a running process is registered");
                let mut ctx = ProcessCtx::new(sim, record);
                let value = body(&mut ctx);
                *result.lock() = Some(value);
            };
            let record = Arc::new(ProcessRecord::new(self, pid, name, cpu, Box::new(on_stack)));
            s.procs.push(Arc::clone(&record));
            record
        };
        // First wake: token sequence 0, the state ProcessRecord::new starts in.
        self.push_wake(self.now(), EventClass::User, WaitToken::initial(record.pid));
        ProcessHandle::new(record, slot)
    }

    /// Pop the next live event, reaping stale (cancelled) entries, and
    /// move the clock to it.
    ///
    /// An action stays in its slot until its entry reaches the head of the
    /// heap, so an event cancelling a later same-timestamp timer still
    /// wins. The action's bytes are copied into `out` (the slot is free
    /// again before its action runs) and its vtable returned, with the
    /// event hook to show it to: the caller owes the hook one call and
    /// `out` exactly one `call`, both once this borrow is released.
    fn pop_live(&self, out: &mut Payload) -> Option<Fired> {
        let mut s = self.inner.state.lock();
        loop {
            let entry = s.queue.pop()?;
            let stale = match s.slots.get(entry.slot as usize) {
                Some(slot) => slot.gen != entry.gen,
                None => true,
            };
            if stale {
                s.dead_in_queue -= 1;
                s.stats.dead_popped += 1;
                s.stats.by_class[entry.class.index()].dead_popped += 1;
                continue;
            }
            let vtable = s.free_slot(entry.slot, out);
            s.stats.fired += 1;
            s.stats.by_class[entry.class.index()].fired += 1;
            let hook = self.advance_to(&s, entry.at());
            return Some((entry.at(), entry.class, vtable, hook));
        }
    }

    /// Fire the wake the calling process is about to queue for itself at
    /// `now + d` without queueing it, when it would be the next event to
    /// pop anyway: the queue is empty, or its head entry — live or
    /// cancelled — is strictly later. Every queued entry has a smaller
    /// `seq` than the wake would get, so an entry at `now + d` or earlier
    /// would pop (or be reaped) first; when there is none, nothing can run
    /// between the push and the pop, and this does what they would have —
    /// consumes the wake's `seq`, counts one fired [`EventClass::User`]
    /// event, advances the clock and calls the event hook — minus the slab
    /// slot, the heap traffic and the two stack switches. Returns `false`,
    /// having changed nothing, when the wake must be queued after all or
    /// the simulation is shutting down (the caller's wait unwinds it).
    pub(crate) fn wake_in_place(&self, d: SimDuration) -> bool {
        let at = self.now() + d;
        let hook = {
            let mut s = self.inner.state.lock();
            if s.shutdown || s.queue.peek().is_some_and(|head| head.at() <= at) {
                return false;
            }
            s.seq += 1;
            s.woken_in_place += 1;
            s.stats.fired += 1;
            s.stats.by_class[EventClass::User.index()].fired += 1;
            self.advance_to(&s, at)
        };
        if let Some(hook) = hook {
            hook(at, EventClass::User);
        }
        true
    }

    /// Move the clock to `at`, where an event fires, under the borrow `s`
    /// came from; returns the event hook, if one is installed, for the
    /// caller to call once that borrow is released.
    fn advance_to(&self, s: &EngineState, at: SimTime) -> Option<EventHook> {
        debug_assert!(at >= self.now());
        self.inner
            .now_ns
            .store(at.as_nanos(), AtomicOrdering::Relaxed);
        s.hook.clone()
    }

    /// Drive the simulation until the event queue drains, then report.
    pub fn run(&self) -> RunReport {
        let (pool_at_entry, unqueued_at_entry, fuse_at_entry) = {
            let s = self.inner.state.lock();
            (s.stats.pool, s.unqueued(), s.stats.fuse)
        };
        let mut popped = 0u64;
        let mut taken = Payload::uninit();
        while let Some((at, class, vtable, hook)) = self.pop_live(&mut taken) {
            if let Some(hook) = hook {
                hook(at, class);
            }
            popped += 1;
            // Safety: `pop_live` just moved a value of `vtable`'s type into
            // `taken`; this call consumes it, once.
            unsafe { (vtable.call)(taken.as_mut_ptr().cast(), self) }
        }
        let s = self.inner.state.lock();
        // Report *logical* events: physical pops plus wakes fired in place
        // and hops the fused fast path elided during this run.
        let events = popped + s.unqueued() - unqueued_at_entry;
        let mut totals = THREAD_TOTALS.get();
        totals.events += events;
        totals.pool.merge(&s.stats.pool.delta_since(&pool_at_entry));
        totals.fuse.merge(&s.stats.fuse.delta_since(&fuse_at_entry));
        THREAD_TOTALS.set(totals);
        RunReport {
            end_time: self.now(),
            events,
            blocked: s
                .procs
                .iter()
                .filter(|p| p.is_blocked())
                .map(|p| p.name.clone())
                .collect(),
            sched: s.stats.clone(),
        }
    }

    /// Like [`Sim::run`], but panics if any process is still blocked when the
    /// queue drains — the normal mode for experiments and tests.
    pub fn run_to_completion(&self) -> RunReport {
        let report = self.run();
        assert!(
            report.is_quiescent(),
            "simulation deadlocked at {}; blocked processes: {:?}",
            report.end_time,
            report.blocked
        );
        report
    }

    /// The record of process `pid`, taken without holding `procs` past
    /// the call: whoever resumes the process may find it spawning.
    fn record(&self, pid: ProcessId) -> Option<Arc<ProcessRecord>> {
        self.inner.state.lock().procs.get(pid.index()).cloned()
    }

    fn dispatch_wake(&self, token: WaitToken) {
        let record = match self.inner.state.lock().procs.get(token.pid().index()) {
            Some(record) => Arc::as_ptr(record),
            None => return,
        };
        // Safety: `procs` only grows, so the `Arc` the pointer came from
        // stays in it, and `&self` keeps `SimInner` (and so `procs`) alive
        // for the whole call — the invariant `run_body` already rests on.
        // Borrowing the record this way spares a reference-count round trip
        // per wake, and the engine's borrow is gone before the body runs.
        unsafe { &*record }.try_resume(token);
    }

    /// Tear down every process that has not finished, on the calling
    /// thread: a parked process is resumed so that its wait unwinds it and
    /// its locals' destructors run; one that never started is dropped
    /// unrun. Call this before abandoning a simulation whose processes may
    /// still be parked (e.g. after an intentional-deadlock test) —
    /// otherwise their stacks, and the world they reference, are never
    /// freed. Idempotent; finished processes are untouched. Any process
    /// that waits after this unwinds at that wait.
    pub fn shutdown(&self) {
        self.inner.state.lock().shutdown = true;
        // By index rather than under one lock: an unwinding process may
        // spawn, and the newcomer must be torn down too.
        let mut next = 0;
        while let Some(record) = self.record(ProcessId::new(next)) {
            record.unwind_if_parked();
            next += 1;
        }
    }

    /// Register a CPU for busy-time accounting and return its id. `_name`
    /// labels the CPU at the call site; only its busy time is kept.
    pub fn add_cpu(&self, _name: impl Into<String>) -> CpuId {
        let cpus = &mut self.inner.state.lock().cpus;
        let id = CpuId::new(cpus.len() as u32);
        cpus.push(SimDuration::ZERO);
        id
    }

    /// Add `amount` of busy time to `cpu` (the `getrusage` counterpart).
    pub fn charge(&self, cpu: CpuId, amount: SimDuration) {
        self.inner.state.lock().cpus[cpu.index()] += amount;
    }

    /// Total busy time accumulated on `cpu`.
    pub fn cpu_busy(&self, cpu: CpuId) -> SimDuration {
        self.inner.state.lock().cpus[cpu.index()]
    }

    /// True once [`Sim::shutdown`] was called: a process's wait unwinds it.
    pub(crate) fn shutting_down(&self) -> bool {
        self.inner.state.lock().shutdown
    }

    /// Number of live events currently queued (diagnostics/tests).
    /// Cancelled-but-unreaped entries are not counted.
    pub fn queued_events(&self) -> usize {
        let s = self.inner.state.lock();
        s.queue.len() - s.dead_in_queue
    }

    /// Snapshot of cumulative scheduler accounting.
    pub fn sched_stats(&self) -> SchedStats {
        self.inner.state.lock().stats.clone()
    }

    /// Credit `n` elided scheduler hops of `class` to the ledger. The
    /// hops are folded into `fired` (total and per-class), so every
    /// event-count observable reads as if the general chain had executed
    /// them — the invariant that keeps goldens byte-identical with the
    /// fused fast path on.
    pub fn note_elided(&self, class: EventClass, n: u64) {
        let mut s = self.inner.state.lock();
        s.stats.fired += n;
        s.stats.by_class[class.index()].fired += n;
        s.stats.events_elided += n;
    }

    /// Undo one [`Sim::note_elided`] credit of `class`. Used when a hop
    /// that was pre-counted as elided has to be materialized after all
    /// (e.g. the deferred NIC-ring release when a second send queues up
    /// behind a fused message): the materialized event will re-count
    /// itself as `fired` when it pops.
    pub fn un_elide(&self, class: EventClass) {
        let mut s = self.inner.state.lock();
        s.stats.fired -= 1;
        s.stats.by_class[class.index()].fired -= 1;
        s.stats.events_elided -= 1;
    }

    /// Count one macro-event executed by the fused fast path.
    pub fn note_macro(&self) {
        self.inner.state.lock().stats.macro_events += 1;
    }

    /// Count one message that evaluated the fuse guard.
    pub fn note_fuse_attempt(&self) {
        self.inner.state.lock().stats.fuse.attempts += 1;
    }

    /// Count one message that ran the fused path end to end.
    pub fn note_fuse_hit(&self) {
        self.inner.state.lock().stats.fuse.hits += 1;
    }

    /// Count one message that fell back to the general path for `cause`.
    pub fn note_defuse(&self, cause: DefuseCause) {
        let mut s = self.inner.state.lock();
        s.stats.fuse.by_cause[cause.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;

    /// Three fuse attempts: two hits (two macro-events), one de-fused.
    fn balanced_ledger() -> SchedStats {
        let mut fuse = FuseTally {
            attempts: 3,
            hits: 2,
            ..FuseTally::default()
        };
        fuse.by_cause[DefuseCause::Contention.index()] = 1;
        SchedStats {
            macro_events: 2,
            fuse,
            ..SchedStats::default()
        }
    }

    #[test]
    fn a_balanced_ledger_audits_clean() {
        assert!(balanced_ledger().audit().is_empty());
        assert!(SchedStats::default().audit().is_empty());
    }

    #[test]
    fn an_uncharged_fuse_attempt_unbalances_the_ledger() {
        let mut stats = balanced_ledger();
        stats.fuse.attempts += 1;
        let violations = stats.audit();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("fuse ledger unbalanced"));
    }

    #[test]
    fn a_macro_event_without_a_hit_breaks_the_census() {
        let mut stats = balanced_ledger();
        stats.macro_events += 1;
        let violations = stats.audit();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("macro-events recorded"));
    }

    #[test]
    fn event_hook_sees_fired_events_not_cancelled_ones() {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<(SimTime, EventClass)>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        sim.set_event_hook(Some(Arc::new(move |at, class| {
            log2.lock().push((at, class));
        })));
        sim.call_in_as(EventClass::Doorbell, SimDuration::from_nanos(5), |_| {});
        sim.call_in_as(EventClass::Fabric, SimDuration::from_nanos(9), |_| {});
        let t = sim.timer_in(EventClass::Retransmit, SimDuration::from_nanos(7), |_| {});
        assert!(t.cancel());
        sim.run();
        assert_eq!(
            *log.lock(),
            vec![
                (SimTime::from_nanos(5), EventClass::Doorbell),
                (SimTime::from_nanos(9), EventClass::Fabric),
            ],
            "hook must see fired events in order and skip cancelled timers"
        );
        // Clearing the hook stops observation.
        sim.set_event_hook(None);
        sim.call_in(SimDuration::from_nanos(1), |_| {});
        sim.run();
        assert_eq!(log.lock().len(), 2);
    }

    #[test]
    fn a_hook_set_or_cleared_inside_an_event_takes_effect_at_the_next_event() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        let hook: EventHook =
            Arc::new(move |at: SimTime, class| l.lock().push((at.as_nanos(), class)));
        fn ns(n: u64) -> SimDuration {
            SimDuration::from_nanos(n)
        }
        sim.call_in(ns(1), |_| {});
        // Installed from inside an event: every later one is seen — the
        // spawn wake, a queued and an in-place process wake, another event.
        sim.call_in_as(EventClass::Firmware, ns(2), move |sim| {
            sim.set_event_hook(Some(hook));
            sim.spawn("hooked", None, |ctx| {
                ctx.sleep(ns(2)); // queued: the fabric event at 3 comes first
                ctx.sleep(ns(0)); // in place: nothing else is due at 4
            });
        });
        sim.call_in_as(EventClass::Fabric, ns(3), |_| {});
        // Cleared from inside an event: no later one is seen, in place or
        // popped.
        sim.call_in_as(EventClass::Doorbell, ns(5), |sim| {
            sim.set_event_hook(None);
            sim.spawn("unhooked", None, |ctx| ctx.sleep(ns(1)));
        });
        sim.call_in(ns(9), |_| {});
        let report = sim.run_to_completion();
        let user = EventClass::User;
        assert_eq!(
            *log.lock(),
            vec![
                (2, user),
                (3, EventClass::Fabric),
                (4, user),
                (4, user),
                (5, EventClass::Doorbell),
            ]
        );
        // Every event fired, seen or not.
        assert_eq!(report.events, 10);
    }

    #[test]
    fn events_run_in_time_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (delay_us, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let log = Arc::clone(&log);
            sim.call_in(SimDuration::from_micros(delay_us), move |_| {
                log.lock().push(tag);
            });
        }
        let report = sim.run();
        assert_eq!(*log.lock(), vec!['a', 'b', 'c']);
        assert_eq!(report.events, 3);
        assert_eq!(report.end_time, SimTime::from_nanos(30_000));
    }

    #[test]
    fn same_time_events_run_fifo() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in 0..16 {
            let log = Arc::clone(&log);
            sim.call_in(SimDuration::from_micros(5), move |_| log.lock().push(tag));
        }
        sim.run();
        assert_eq!(*log.lock(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn heap_order_is_a_sort_by_time_then_seq() {
        use crate::rng::SimRng;
        let mut rng = SimRng::derive(0x5EED, "heap-order");
        // Few distinct instants, so most entries tie on time and fall back
        // to `seq`; both ends of the representable range are among them.
        let instants = [0, 1, 7, 1 << 32, u64::MAX - 1, u64::MAX];
        let mut want = Vec::new();
        let mut heap = BinaryHeap::new();
        for seq in 0..2_000u64 {
            let at = SimTime::from_nanos(instants[rng.below(6) as usize]);
            // Sequence numbers near `u64::MAX` must not spill into the time.
            let seq = if seq % 2 == 0 { seq } else { u64::MAX - seq };
            want.push((at, seq));
            heap.push(Scheduled::new(at, seq, 0, 0, EventClass::User));
        }
        assert!(want.iter().any(|w| w.0 == SimTime::ZERO));
        assert!(want.iter().any(|w| w.0 == SimTime::MAX));
        // The four operators the heap sifts with answer as the (inverted)
        // tuple order does.
        for pair in want.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (sa, sb) = (
                Scheduled::new(a.0, a.1, 0, 0, EventClass::User),
                Scheduled::new(b.0, b.1, 0, 0, EventClass::User),
            );
            assert_eq!(sa.at(), a.0);
            assert_eq!(sa < sb, a > b);
            assert_eq!(sa <= sb, a >= b);
            assert_eq!(sa > sb, a < b);
            assert_eq!(sa >= sb, a <= b);
            assert_eq!(sa.cmp(&sb), b.cmp(&a));
            assert_eq!(sa == sb, a == b);
        }
        want.sort_unstable();
        let got: Vec<_> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.at(), e.key as u64))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn events_at_zero_and_at_the_last_instant_run_in_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (at, tag) in [
            (SimTime::MAX, 'y'),
            (SimTime::from_nanos(3), 'c'),
            (SimTime::ZERO, 'a'),
            (SimTime::MAX, 'z'),
            (SimTime::ZERO, 'b'),
        ] {
            let log = Arc::clone(&log);
            sim.call_at(at, move |_| log.lock().push(tag));
        }
        let report = sim.run();
        assert_eq!(*log.lock(), vec!['a', 'b', 'c', 'y', 'z']);
        assert_eq!(report.end_time, SimTime::MAX);
    }

    #[test]
    fn events_can_schedule_events() {
        let sim = Sim::new();
        let count = Arc::new(AtomicUsize::new(0));
        fn chain(sim: &Sim, count: Arc<AtomicUsize>, left: usize) {
            if left == 0 {
                return;
            }
            count.fetch_add(1, AtomicOrdering::Relaxed);
            sim.call_in(SimDuration::from_micros(1), move |s| {
                chain(s, count, left - 1)
            });
        }
        let c = Arc::clone(&count);
        sim.call_in(SimDuration::ZERO, move |s| chain(s, c, 100));
        let report = sim.run();
        assert_eq!(count.load(AtomicOrdering::Relaxed), 100);
        assert_eq!(report.end_time, SimTime::from_nanos(100_000));
    }

    #[test]
    fn clock_never_goes_backwards() {
        let sim = Sim::new();
        let times = Arc::new(Mutex::new(Vec::new()));
        for d in [50u64, 10, 10, 40, 20] {
            let times = Arc::clone(&times);
            sim.call_in(SimDuration::from_micros(d), move |s| {
                times.lock().push(s.now());
            });
        }
        sim.run();
        let times = times.lock();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cpu_charging_accumulates() {
        let sim = Sim::new();
        let cpu = sim.add_cpu("node0");
        sim.charge(cpu, SimDuration::from_micros(3));
        sim.charge(cpu, SimDuration::from_micros(4));
        assert_eq!(sim.cpu_busy(cpu), SimDuration::from_micros(7));
    }

    #[test]
    fn empty_sim_reports_quiescent() {
        let sim = Sim::new();
        let report = sim.run();
        assert!(report.is_quiescent());
        assert_eq!(report.events, 0);
        assert_eq!(report.end_time, SimTime::ZERO);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let sim = Sim::new();
        let hit = Arc::new(AtomicUsize::new(0));
        let h = {
            let hit = Arc::clone(&hit);
            sim.timer_in(
                EventClass::Retransmit,
                SimDuration::from_micros(10),
                move |_| {
                    hit.fetch_add(1, AtomicOrdering::Relaxed);
                },
            )
        };
        assert!(h.is_pending());
        assert!(h.cancel());
        assert!(!h.is_pending());
        assert!(!h.cancel(), "second cancel must be a no-op");
        let report = sim.run();
        assert_eq!(hit.load(AtomicOrdering::Relaxed), 0);
        assert_eq!(report.events, 0, "cancelled timer must not execute");
        assert_eq!(report.sched.cancelled, 1);
        assert_eq!(report.sched.dead_popped, 1);
        assert_eq!(report.sched.class(EventClass::Retransmit).cancelled, 1);
        assert_eq!(
            report.end_time,
            SimTime::ZERO,
            "dead entry must not advance time"
        );
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let sim = Sim::new();
        let h = sim.timer_in(EventClass::User, SimDuration::from_micros(1), |_| {});
        let report = sim.run();
        assert_eq!(report.sched.fired, 1);
        assert!(!h.cancel());
        assert_eq!(sim.sched_stats().cancelled, 0);
    }

    #[test]
    fn slot_reuse_keeps_handles_stale() {
        let sim = Sim::new();
        let first_hit = Arc::new(AtomicUsize::new(0));
        let h1 = {
            let hit = Arc::clone(&first_hit);
            sim.timer_in(EventClass::User, SimDuration::from_micros(5), move |_| {
                hit.fetch_add(1, AtomicOrdering::Relaxed);
            })
        };
        assert!(h1.cancel());
        // The freed slot is reused by the next schedule; the old handle must
        // not be able to cancel the new timer.
        let second_hit = Arc::new(AtomicUsize::new(0));
        let _h2 = {
            let hit = Arc::clone(&second_hit);
            sim.timer_in(EventClass::User, SimDuration::from_micros(5), move |_| {
                hit.fetch_add(1, AtomicOrdering::Relaxed);
            })
        };
        assert!(!h1.cancel(), "stale handle must not hit the reused slot");
        sim.run();
        assert_eq!(first_hit.load(AtomicOrdering::Relaxed), 0);
        assert_eq!(second_hit.load(AtomicOrdering::Relaxed), 1);
    }

    #[test]
    fn queued_events_excludes_cancelled() {
        let sim = Sim::new();
        let h = sim.timer_in(EventClass::User, SimDuration::from_micros(1), |_| {});
        sim.call_in(SimDuration::from_micros(2), |_| {});
        assert_eq!(sim.queued_events(), 2);
        h.cancel();
        assert_eq!(sim.queued_events(), 1);
        sim.run();
        assert_eq!(sim.queued_events(), 0);
    }

    #[test]
    fn per_class_tallies_sum_to_totals() {
        let sim = Sim::new();
        sim.call_in_as(EventClass::Fabric, SimDuration::from_micros(1), |_| {});
        sim.call_in_as(EventClass::Firmware, SimDuration::from_micros(2), |_| {});
        let h = sim.timer_in(EventClass::Doorbell, SimDuration::from_micros(3), |_| {});
        h.cancel();
        let report = sim.run();
        let stats = &report.sched;
        let (mut fired, mut cancelled, mut dead) = (0, 0, 0);
        for (_, t) in stats.classes() {
            fired += t.fired;
            cancelled += t.cancelled;
            dead += t.dead_popped;
        }
        assert_eq!(fired, stats.fired);
        assert_eq!(cancelled, stats.cancelled);
        assert_eq!(dead, stats.dead_popped);
        assert_eq!(stats.class(EventClass::Fabric).fired, 1);
        assert_eq!(stats.class(EventClass::Firmware).fired, 1);
        assert_eq!(stats.class(EventClass::Doorbell).cancelled, 1);
    }

    #[test]
    fn same_time_cancel_still_wins() {
        // Event A and timer B share one timestamp; A cancels B. B's action
        // stays in its slot until B itself is popped, so the cancel lands.
        let sim = Sim::new();
        let hit = Arc::new(AtomicUsize::new(0));
        // A is armed first (smaller seq, runs first) and cancels B, which
        // shares its timestamp but has a later seq.
        let b_handle: Arc<Mutex<Option<TimerHandle>>> = Arc::new(Mutex::new(None));
        let b2 = Arc::clone(&b_handle);
        sim.call_at(SimTime::from_nanos(5_000), move |_| {
            let b = b2.lock().take().expect("B armed before run");
            assert!(b.cancel(), "same-timestamp cancel must still win");
        });
        let hit2 = Arc::clone(&hit);
        let b = sim.timer_in(
            EventClass::Retransmit,
            SimDuration::from_micros(5),
            move |_| {
                hit2.fetch_add(1, AtomicOrdering::Relaxed);
            },
        );
        *b_handle.lock() = Some(b);
        let report = sim.run();
        assert_eq!(
            hit.load(AtomicOrdering::Relaxed),
            0,
            "cancelled same-timestamp timer fired"
        );
        assert_eq!(report.sched.cancelled, 1);
        assert_eq!(report.sched.dead_popped, 1);
    }

    #[test]
    fn pool_stats_classify_inline_and_boxed() {
        let sim = Sim::new();
        // Inline: captures a single Arc (8 B).
        let a = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&a);
        sim.call_in(SimDuration::from_micros(1), move |_| {
            a2.fetch_add(1, AtomicOrdering::Relaxed);
        });
        // Inline too: Arc + 32 B of config words (40 B).
        let a3 = Arc::clone(&a);
        let pad = [1u64, 2, 3, 4];
        sim.call_in(SimDuration::from_micros(2), move |_| {
            a3.fetch_add(pad[0] as usize, AtomicOrdering::Relaxed);
        });
        // Boxed: Arc + 256 B of payload (> LARGE_WORDS * 8).
        let a4 = Arc::clone(&a);
        let big = [1u64; 32];
        sim.call_in(SimDuration::from_micros(3), move |_| {
            a4.fetch_add(big[31] as usize, AtomicOrdering::Relaxed);
        });
        let report = sim.run();
        assert_eq!(a.load(AtomicOrdering::Relaxed), 3);
        let pool = report.sched.pool;
        assert_eq!(pool.inline, 2, "{pool:?}");
        assert_eq!(pool.boxed, 1, "{pool:?}");
        assert!((pool.pool_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(pool.slot_grown, 3, "three pending at once: three slots");
    }

    #[test]
    fn slots_recycle_without_new_growth() {
        // Schedule-and-run twice: the second wave must be served entirely
        // from the freelist (pool reuse), never growing the slab.
        let sim = Sim::new();
        for _ in 0..64 {
            sim.call_in(SimDuration::from_micros(1), |_| {});
        }
        sim.run();
        let grown_after_first = sim.sched_stats().pool.slot_grown;
        assert_eq!(grown_after_first, 64);
        for _ in 0..64 {
            sim.call_in(SimDuration::from_micros(1), |_| {});
        }
        sim.run();
        let pool = sim.sched_stats().pool;
        assert_eq!(pool.slot_grown, 64, "second wave must not grow the slab");
        assert_eq!(pool.slot_reused, 64);
        assert_eq!(pool.slot_reuse_rate(), 0.5);
    }

    #[test]
    fn same_time_events_run_fifo_and_newcomers_join_the_back() {
        // 32 events share a timestamp; every eighth schedules one more at
        // that same instant, which must run after all 32, in seq order.
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in 0..32 {
            let log = Arc::clone(&log);
            sim.call_at(SimTime::from_nanos(500), move |sim| {
                log.lock().push(tag);
                if tag % 8 == 0 {
                    let log = Arc::clone(&log);
                    sim.call_in(SimDuration::ZERO, move |_| log.lock().push(100 + tag));
                }
            });
        }
        let report = sim.run();
        let want: Vec<i32> = (0..32).chain([100, 108, 116, 124]).collect();
        assert_eq!(*log.lock(), want);
        assert_eq!(report.events, 36);
        assert_eq!(report.end_time, SimTime::from_nanos(500));
    }

    #[test]
    fn arena_never_hands_out_an_in_use_slot() {
        // Seeded property loop: randomly arm (across three capture sizes,
        // two inline and one boxed) and cancel timers. Invariant: a newly armed timer never
        // receives the slot of any timer that is still pending, and every
        // captured guard is dropped exactly once (fired or cancelled, never
        // both, never leaked).
        use crate::rng::SimRng;
        for seed in 0..6u64 {
            let mut rng = SimRng::derive(seed, "arena-prop");
            let sim = Sim::new();
            let fired = Arc::new(AtomicUsize::new(0));
            let guard = Arc::new(()); // strong count tracks live captures
            let mut pending: Vec<TimerHandle> = Vec::new();
            let mut armed = 0usize;
            let mut cancelled = 0usize;
            for _ in 0..2_000 {
                if pending.is_empty() || !rng.next_u64().is_multiple_of(3) {
                    let delay = SimDuration::from_nanos(1 + rng.next_u64() % 997);
                    let f = Arc::clone(&fired);
                    let g = Arc::clone(&guard);
                    let h = match rng.next_u64() % 3 {
                        0 => sim.timer_in(EventClass::User, delay, move |_| {
                            let _g = g;
                            f.fetch_add(1, AtomicOrdering::Relaxed);
                        }),
                        1 => {
                            let pad = [7u64; 3];
                            sim.timer_in(EventClass::Fabric, delay, move |_| {
                                let _g = g;
                                f.fetch_add(pad[0] as usize / 7, AtomicOrdering::Relaxed);
                            })
                        }
                        _ => {
                            let pad = [7u64; 32];
                            sim.timer_in(EventClass::Retransmit, delay, move |_| {
                                let _g = g;
                                f.fetch_add(pad[31] as usize / 7, AtomicOrdering::Relaxed);
                            })
                        }
                    };
                    for p in &pending {
                        assert!(
                            p.slot != h.slot,
                            "seed {seed}: slot {} handed out while still in use",
                            h.slot
                        );
                    }
                    pending.push(h);
                    armed += 1;
                } else {
                    let idx = (rng.next_u64() % pending.len() as u64) as usize;
                    let h = pending.swap_remove(idx);
                    assert!(h.cancel(), "pending timer must cancel exactly once");
                    cancelled += 1;
                }
            }
            let report = sim.run();
            assert_eq!(
                fired.load(AtomicOrdering::Relaxed),
                armed - cancelled,
                "seed {seed}: every armed timer fires xor cancels"
            );
            assert_eq!(report.sched.cancelled as usize, cancelled);
            assert_eq!(
                Arc::strong_count(&guard),
                1,
                "seed {seed}: a captured guard leaked or double-freed"
            );
            let pool = report.sched.pool;
            assert_eq!(
                pool.inline + pool.boxed,
                armed as u64,
                "seed {seed}: every closure accounted to exactly one class"
            );
            assert!(pool.inline > 0 && pool.boxed > 0);
        }
    }

    #[test]
    fn thread_events_counter_accumulates() {
        let before = thread_events();
        let sim = Sim::new();
        for _ in 0..10 {
            sim.call_in(SimDuration::from_micros(1), |_| {});
        }
        sim.run();
        assert_eq!(thread_events() - before, 10);
    }

    #[test]
    fn timer_handle_outliving_sim_is_inert() {
        let h = {
            let sim = Sim::new();
            sim.timer_in(EventClass::User, SimDuration::from_micros(1), |_| {})
        };
        assert!(!h.cancel());
        assert!(!h.is_pending());
    }

    /// The model test's clock: every delay is a small multiple of this, so
    /// most events share a timestamp with others.
    const TICK: u64 = 100;

    /// One event of a random program: when it fires it logs itself, tries
    /// to cancel `cancels` (pending or not), then schedules `children`.
    #[derive(Clone)]
    struct ModelNode {
        /// Ticks from the scheduling instant to firing; 0 = same timestamp.
        delay: u64,
        children: Vec<usize>,
        cancels: Vec<usize>,
    }

    /// A random forest of events: `(nodes, roots)`.
    fn model_program(rng: &mut crate::rng::SimRng) -> (Vec<ModelNode>, Vec<usize>) {
        const N: usize = 400;
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let mut nodes: Vec<ModelNode> = (0..N)
            .map(|_| ModelNode {
                delay: pick(4) as u64,
                children: Vec::new(),
                cancels: Vec::new(),
            })
            .collect();
        let mut roots = Vec::new();
        for i in 0..N {
            if i < 8 || pick(6) == 0 {
                roots.push(i);
            } else {
                nodes[pick(i)].children.push(i);
            }
            nodes[pick(N)].cancels.push(pick(N));
        }
        (nodes, roots)
    }

    /// What a scheduler must do with the program, from a `Vec` re-sorted by
    /// `(time, seq)` before every pop: the fired order and the
    /// `(fired, cancelled, dead_popped)` ledger.
    fn model_reference(nodes: &[ModelNode], roots: &[usize]) -> (Vec<usize>, (u64, u64, u64)) {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Unscheduled,
            Pending,
            Cancelled,
            Fired,
        }
        let mut state = vec![State::Unscheduled; nodes.len()];
        let mut queue: Vec<(u64, u64, usize)> = Vec::new();
        let mut seq = 0;
        let mut arm = |queue: &mut Vec<_>, state: &mut Vec<State>, now: u64, node: usize| {
            queue.push((now + nodes[node].delay * TICK, seq, node));
            state[node] = State::Pending;
            seq += 1;
        };
        for &r in roots {
            arm(&mut queue, &mut state, 0, r);
        }
        let (mut order, mut cancelled, mut dead_popped) = (Vec::new(), 0, 0);
        while !queue.is_empty() {
            queue.sort_unstable();
            let (now, _, node) = queue.remove(0);
            if state[node] == State::Cancelled {
                dead_popped += 1;
                continue;
            }
            state[node] = State::Fired;
            order.push(node);
            for &c in &nodes[node].cancels {
                if state[c] == State::Pending {
                    state[c] = State::Cancelled;
                    cancelled += 1;
                }
            }
            for &c in &nodes[node].children {
                arm(&mut queue, &mut state, now, c);
            }
        }
        let fired = order.len() as u64;
        (order, (fired, cancelled, dead_popped))
    }

    struct ModelWorld {
        nodes: Vec<ModelNode>,
        handles: Mutex<Vec<Option<TimerHandle>>>,
        order: Mutex<Vec<usize>>,
    }

    fn model_arm(sim: &Sim, world: &Arc<ModelWorld>, node: usize) {
        let at = sim.now() + SimDuration::from_nanos(world.nodes[node].delay * TICK);
        let w = Arc::clone(world);
        let handle = sim.timer_at(EventClass::User, at, move |sim| {
            w.order.lock().push(node);
            for &c in &w.nodes[node].cancels {
                let handle = w.handles.lock()[c].take();
                if let Some(handle) = handle {
                    handle.cancel();
                }
            }
            for &c in &w.nodes[node].children {
                model_arm(sim, &w, c);
            }
        });
        world.handles.lock()[node] = Some(handle);
    }

    #[test]
    fn random_programs_match_a_sorted_vec_scheduler() {
        // Schedule / cancel / reschedule-at-now on a coarse clock: same
        // fired order, same ledger as the reference.
        use crate::rng::SimRng;
        for seed in 0..12u64 {
            let mut rng = SimRng::derive(seed, "engine-model");
            let (nodes, roots) = model_program(&mut rng);
            let (want_order, want_ledger) = model_reference(&nodes, &roots);
            assert!(want_ledger.1 >= 20, "seed {seed}: the program must cancel");
            let sim = Sim::new();
            let world = Arc::new(ModelWorld {
                nodes: nodes.clone(),
                handles: Mutex::new((0..nodes.len()).map(|_| None).collect()),
                order: Mutex::new(Vec::new()),
            });
            for &r in &roots {
                model_arm(&sim, &world, r);
            }
            let stats = sim.run().sched;
            assert_eq!(*world.order.lock(), want_order, "seed {seed}");
            assert_eq!(
                (stats.fired, stats.cancelled, stats.dead_popped),
                want_ledger,
                "seed {seed}"
            );
        }
    }
}
