//! Host-independent performance proxies, gated so that a regression fails
//! a diff instead of waiting for someone to notice a slower laptop
//! (ROADMAP item 1d): heap allocations per message, boxed events, event-pool
//! hit rate, and the size of the handle every datapath closure captures.
//!
//! Every number here is a count the simulator reproduces exactly: the whole
//! world runs on the calling thread, and the allocator below counts per
//! thread, so tests running beside this one do not leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vibe_suite::simkit::{thread_pool_stats, PoolStats};
use vibe_suite::via::{Profile, Provider};
use vibe_suite::vibe::harness::{bandwidth, ping_pong, DtConfig};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
struct Counting;

// Safety: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with no
// destructor, so touching it from inside the allocator cannot recurse.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // Safety: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Safety: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // Safety: as for `dealloc`, plus the caller's size obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and event-pool churn of one call.
fn measured(f: impl FnOnce()) -> (u64, PoolStats) {
    let (allocs, pool) = (ALLOCS.with(Cell::get), thread_pool_stats());
    f();
    (
        ALLOCS.with(Cell::get) - allocs,
        thread_pool_stats().delta_since(&pool),
    )
}

/// Marginal heap allocations per iteration of `run`, in hundredths: the
/// slope between a short and a long run of the same world, so cluster
/// set-up and one-off buffer growth cancel.
fn allocs_per_iter_x100(run: impl Fn(u32)) -> u64 {
    const SHORT: u32 = 64;
    const LONG: u32 = 576;
    let (short, _) = measured(|| run(SHORT));
    let (long, pool) = measured(|| run(LONG));
    assert_eq!(pool.boxed, 0, "an event closure outgrew the slab: {pool:?}");
    assert_eq!(pool.pool_hit_rate(), 1.0, "{pool:?}");
    (long - short) * 100 / (LONG - SHORT) as u64
}

/// Ceilings recorded from this tree, per profile in `paper_trio` order
/// (M-VIA, BVIA, cLAN): a 4 B polling ping-pong iteration (two messages)
/// and one 16 KiB message of a depth-16 stream. CHANGES.md (PR 15) holds
/// the parent's values next to these.
const PING_PONG_X100: [u64; 3] = [2001, 2201, 2201];
const STREAM_X100: [u64; 3] = [3234, 1736, 2537];

#[test]
fn allocations_per_message_stay_under_their_recorded_ceilings() {
    let (mut ping_pongs, mut streams) = ([0; 3], [0; 3]);
    for (i, profile) in Profile::paper_trio().into_iter().enumerate() {
        ping_pongs[i] = allocs_per_iter_x100(|iters| {
            ping_pong(&DtConfig {
                iters,
                ..DtConfig::base(profile.clone(), 4)
            });
        });
        streams[i] = allocs_per_iter_x100(|iters| {
            bandwidth(&DtConfig {
                iters,
                queue_depth: 16,
                ..DtConfig::base(profile.clone(), 16 * 1024)
            });
        });
    }
    println!("allocations x100 per iteration: ping-pong {ping_pongs:?}, stream {streams:?}");
    for i in 0..3 {
        assert!(
            ping_pongs[i] <= PING_PONG_X100[i] && streams[i] <= STREAM_X100[i],
            "allocations x100 per iteration (M-VIA, BVIA, cLAN): ping-pong {ping_pongs:?} \
             over {PING_PONG_X100:?}, or stream {streams:?} over {STREAM_X100:?}"
        );
    }
}

#[test]
fn provider_handle_is_at_most_two_pointers() {
    assert!(size_of::<Provider>() <= 2 * size_of::<usize>());
}
