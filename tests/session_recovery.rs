//! Randomized session-recovery property test: arbitrary seed-derived
//! crash/loss/fault plans (node_down vs nic_reset, either endpoint,
//! random window edges, optional degrade-loss window on the survivor,
//! optional second kill) must deliver every session message exactly
//! once, in order.
//!
//! The exactly-once and in-order assertions live inside
//! [`recovery_probe`] itself; this sweep drives it over the seeds.

use vibe_suite::vibe::crash_bench::recovery_probe;

#[test]
fn arbitrary_crash_plans_deliver_exactly_once() {
    let mut crashed_runs = 0usize;
    for seed in [
        0x51u64,
        0x1402,
        0x30_000,
        0x4BAD_F00D,
        0x5EED_5EED,
        0x6_0000_0001,
    ] {
        // Every probe installs at least one node-scoped window, so the
        // victim's provider must acknowledge a wipe.
        if !recovery_probe(seed).contains("victim[crashes=0 resets=0]") {
            crashed_runs += 1;
        }
    }
    assert_eq!(crashed_runs, 6, "every probe plan carries a node wipe");
}
