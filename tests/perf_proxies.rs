//! Host-independent performance proxies, gated so that a regression fails
//! a diff instead of waiting for someone to notice a slower laptop
//! (ROADMAP item 2): heap allocations, bytes allocated, mutex acquisitions,
//! queued process wakes, logical events and queued events per message,
//! boxed events,
//! event-pool hit rate, and the size of the handle every datapath closure
//! captures.
//!
//! Every number here is a count the simulator reproduces exactly: the whole
//! world runs on the calling thread, and the allocator below and
//! `pl-shim`'s `count` feature both count per thread, so tests running
//! beside this one do not leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vibe_suite::simkit::{thread_events, thread_pool_stats, PoolStats};
use vibe_suite::via::{Profile, Provider};
use vibe_suite::vibe::harness::{bandwidth, ping_pong, DtConfig};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations and the bytes
/// they asked for (a `realloc` counts its whole new size).
struct Counting;

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    ALLOCATED_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// Safety: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local `Cell`s with no
// destructor, so touching them from inside the allocator cannot recurse.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // Safety: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Safety: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // Safety: as for `dealloc`, plus the caller's size obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Index of each counter in [`counters`].
const ALLOCATIONS: usize = 0;
const MUTEX_ACQUISITIONS: usize = 1;
const BYTES_ALLOCATED: usize = 2;
const QUEUED_WAKES: usize = 3;
const LOGICAL_EVENTS: usize = 4;
const QUEUED_EVENTS: usize = 5;

/// `[allocations, mutex acquisitions, bytes allocated, queued process
/// wakes, logical events, queued events]` made by this thread so far. A
/// process wake is queued when something else is due before it; one that
/// would pop next fires in place and is not counted here, but is a logical
/// event like any other. Queued events are every event pushed onto the
/// queue (`PoolStats::pooled` plus `boxed`): queued wakes included, and
/// timers cancelled before they fired, but no wake fired in place and no
/// hop a fold elided.
fn counters() -> [u64; 6] {
    let pool = thread_pool_stats();
    [
        ALLOCS.with(Cell::get),
        parking_lot::lock_count(),
        ALLOCATED_BYTES.with(Cell::get),
        pool.wakes,
        thread_events(),
        pool.pooled() + pool.boxed,
    ]
}

/// The counters and event-pool churn of one call.
fn measured(f: impl FnOnce()) -> ([u64; 6], PoolStats) {
    let (before, pool) = (counters(), thread_pool_stats());
    f();
    let after = counters();
    (
        std::array::from_fn(|i| after[i] - before[i]),
        thread_pool_stats().delta_since(&pool),
    )
}

/// Marginal [`counters`] per iteration of `run`, in hundredths: the slope
/// between a short and a long run of the same world, so cluster set-up and
/// one-off buffer growth cancel.
fn per_iter_x100(run: impl Fn(u32)) -> [u64; 6] {
    const SHORT: u32 = 64;
    const LONG: u32 = 576;
    let (short, _) = measured(|| run(SHORT));
    let (long, pool) = measured(|| run(LONG));
    assert_eq!(pool.boxed, 0, "an event closure outgrew the slab: {pool:?}");
    assert_eq!(pool.pool_hit_rate(), 1.0, "{pool:?}");
    std::array::from_fn(|i| (long[i] - short[i]) * 100 / (LONG - SHORT) as u64)
}

/// Per profile in `paper_trio` order (M-VIA, BVIA, cLAN), the
/// [`per_iter_x100`] counters of a 4 B polling ping-pong iteration (two
/// messages) and of one 16 KiB message of a depth-16 stream.
fn trio_x100() -> [[[u64; 6]; 3]; 2] {
    let (mut ping_pongs, mut streams) = ([[0; 6]; 3], [[0; 6]; 3]);
    for (i, profile) in Profile::paper_trio().into_iter().enumerate() {
        ping_pongs[i] = per_iter_x100(|iters| {
            ping_pong(&DtConfig {
                iters,
                ..DtConfig::base(profile.clone(), 4)
            });
        });
        streams[i] = per_iter_x100(|iters| {
            bandwidth(&DtConfig {
                iters,
                queue_depth: 16,
                ..DtConfig::base(profile.clone(), 16 * 1024)
            });
        });
    }
    [ping_pongs, streams]
}

/// One counter of [`trio_x100`], as `[ping-pong, stream]` rows of profiles.
fn column(trio: &[[[u64; 6]; 3]; 2], counter: usize) -> [[u64; 3]; 2] {
    trio.map(|workload| workload.map(|profile| profile[counter]))
}

/// True when every entry of `got` is at or under its `ceiling`.
fn under(got: &[[u64; 3]; 2], ceiling: &[[u64; 3]; 2]) -> bool {
    let mut pairs = got.iter().flatten().zip(ceiling.iter().flatten());
    pairs.all(|(got, ceiling)| got <= ceiling)
}

/// Allocation ceilings recorded from this tree, `[ping-pong, stream]` per
/// profile, in hundredths. CHANGES.md (PR 24) holds the parent's values next
/// to these: 2001/2201/2201 and 3234/1736/2537 while every fragment owned a
/// copy of its bytes.
const ALLOCS_X100: [[u64; 3]; 2] = [[1601, 1801, 1801], [1928, 1229, 1631]];

/// Ceilings on bytes allocated, same layout. A 16 KiB stream message may
/// allocate its one send snapshot plus a fifth; the parent, which copied the
/// message twice more on the way to the wire, read 51 022 / 49 843 / 50 436
/// bytes. The ping-pong row is recorded as found.
const ALLOCATED_BYTES_X100: [[u64; 3]; 2] = [[75_400, 81_800, 81_800], [2_000_000; 3]];

#[test]
fn allocations_per_message_stay_under_their_recorded_ceilings() {
    let trio = trio_x100();
    let (allocs, bytes) = (column(&trio, ALLOCATIONS), column(&trio, BYTES_ALLOCATED));
    println!(
        "allocations x100 per iteration, [ping-pong, stream] x (M-VIA, BVIA, cLAN): {allocs:?}"
    );
    println!("bytes allocated x100 per iteration, same layout: {bytes:?}");
    assert!(
        under(&allocs, &ALLOCS_X100),
        "allocations x100 per iteration {allocs:?} over {ALLOCS_X100:?}"
    );
    assert!(
        under(&bytes, &ALLOCATED_BYTES_X100),
        "bytes allocated x100 per iteration {bytes:?} over {ALLOCATED_BYTES_X100:?}"
    );
}

/// A world's state lives in `simkit::Confined` cells, so a message takes no
/// mutex at all, in any profile or build.
#[test]
fn no_mutex_is_acquired_per_message() {
    let locks = column(&trio_x100(), MUTEX_ACQUISITIONS);
    println!(
        "mutex acquisitions x100 per iteration, [ping-pong, stream] x (M-VIA, BVIA, cLAN): {locks:?}"
    );
    assert_eq!(locks, [[0; 3]; 2], "mutex acquisitions x100 per iteration");
}

/// Queued process wakes, same layout. A host-cost charge (`busy`) whose
/// wake is the next event fires in place instead, so an M-VIA polling
/// ping-pong iteration queues two wakes of its twenty logical events, not
/// ten. The parent of the in-place wake read
/// `[[1000, 1100, 1100], [529, 629, 619]]`.
const QUEUED_WAKES_X100: [[u64; 3]; 2] = [[200, 300, 300], [249, 408, 411]];

/// Logical events (`thread_events`), same layout: what the all-queued
/// chain executes, so a wake fired in place must leave it exactly where it
/// was before wakes could be.
const LOGICAL_EVENTS_X100: [[u64; 3]; 2] = [[2000, 3100, 3100], [6544, 3160, 5150]];

#[test]
fn queued_wakes_per_message_stay_under_their_recorded_ceilings() {
    let wakes = column(&trio_x100(), QUEUED_WAKES);
    println!(
        "queued wakes x100 per iteration, [ping-pong, stream] x (M-VIA, BVIA, cLAN): {wakes:?}"
    );
    assert!(
        under(&wakes, &QUEUED_WAKES_X100),
        "queued wakes x100 per iteration {wakes:?} over {QUEUED_WAKES_X100:?}"
    );
}

#[test]
fn logical_events_per_message_are_unchanged() {
    let events = column(&trio_x100(), LOGICAL_EVENTS);
    println!(
        "logical events x100 per iteration, [ping-pong, stream] x (M-VIA, BVIA, cLAN): {events:?}"
    );
    assert_eq!(
        events, LOGICAL_EVENTS_X100,
        "logical events x100 per iteration"
    );
}

/// Ceilings on queued events, same layout, recorded as found. The exact
/// logical count cannot see an event that stops being folded: it was
/// counted before as elided and is counted now as fired, while this one
/// rises.
const QUEUED_EVENTS_X100: [[u64; 3]; 2] = [[1000, 1100, 1100], [5061, 2536, 4139]];

#[test]
fn queued_events_per_message_stay_under_their_recorded_ceilings() {
    let queued = column(&trio_x100(), QUEUED_EVENTS);
    println!(
        "queued events x100 per iteration, [ping-pong, stream] x (M-VIA, BVIA, cLAN): {queued:?}"
    );
    assert!(
        under(&queued, &QUEUED_EVENTS_X100),
        "queued events x100 per iteration {queued:?} over {QUEUED_EVENTS_X100:?}"
    );
}

#[test]
fn provider_handle_is_at_most_two_pointers() {
    assert!(size_of::<Provider>() <= 2 * size_of::<usize>());
}
