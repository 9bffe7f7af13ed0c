//! Base data-transfer micro-benchmarks (§3.2.1): latency, bandwidth, and
//! CPU utilization under the base setup — 100% buffer reuse, one data
//! segment, no CQ, one VI connection — in polling and blocking variants.
//! Reproduces Figs. 3 and 4.

use simkit::WaitMode;
use via::Profile;

use crate::harness::{paper_sizes, DtConfig};
use crate::sweep::{Curve, Metric, Sweep};

/// Iteration count for a latency point (deterministic sim: modest counts).
pub const LAT_ITERS: u32 = 30;
/// Message count for a bandwidth point at message size `size`.
pub fn bw_iters(size: u64) -> u32 {
    // Enough bytes to amortize the trailing application-level ACK
    // (the paper keeps "the time for transmission of the acknowledgment
    // … negligible in comparison with the total time").
    ((4 << 20) / size.max(1)).clamp(64, 2048) as u32
}

/// One base panel: `metric` vs. message size over the paper's sizes, one
/// curve per profile, under polling (Fig 3) or blocking (Fig 4) waits.
/// With polling every profile's CPU curve pegs at 100%.
pub fn base_sweep(profiles: &[Profile], mode: WaitMode, metric: Metric) -> Sweep {
    let label = match mode {
        WaitMode::Poll => "polling",
        WaitMode::Block => "blocking",
    };
    let fig = match (metric, mode) {
        (Metric::Bandwidth, _) | (Metric::Latency, WaitMode::Poll) => 3,
        (Metric::Cpu, _) | (Metric::Latency, WaitMode::Block) => 4,
    };
    let title = format!("Base {} with {label} (Fig {fig})", metric.name());
    let mut sweep = Sweep::new(title, "bytes", metric.y_label());
    for p in profiles {
        let profile = p.clone();
        sweep.push(Curve::dt(p.name, &paper_sizes(), metric, move |size| {
            DtConfig {
                iters: match metric {
                    Metric::Bandwidth => bw_iters(size),
                    Metric::Latency | Metric::Cpu => LAT_ITERS,
                },
                wait: mode,
                ..DtConfig::base(profile.clone(), size)
            }
        }));
    }
    sweep
}
