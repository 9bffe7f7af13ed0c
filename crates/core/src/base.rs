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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{bandwidth, ping_pong};

    fn lat(profile: Profile, size: u64, mode: WaitMode) -> f64 {
        let cfg = DtConfig {
            iters: 20,
            wait: mode,
            ..DtConfig::base(profile, size)
        };
        ping_pong(&cfg).latency_us
    }

    fn bw(profile: Profile, size: u64) -> f64 {
        let cfg = DtConfig {
            iters: bw_iters(size).min(256),
            ..DtConfig::base(profile, size)
        };
        bandwidth(&cfg).mbps
    }

    #[test]
    fn clan_has_lowest_small_message_latency() {
        // §4.3.1: "cLAN provides the lowest latency."
        let c = lat(Profile::clan(), 4, WaitMode::Poll);
        let m = lat(Profile::mvia(), 4, WaitMode::Poll);
        let b = lat(Profile::bvia(), 4, WaitMode::Poll);
        assert!(c < m, "cLAN {c} !< M-VIA {m}");
        assert!(c < b, "cLAN {c} !< BVIA {b}");
    }

    #[test]
    fn mvia_beats_bvia_short_bvia_beats_mvia_long() {
        // §4.3.1: "M-VIA has a lower latency for short messages. BVIA
        // outperforms M-VIA for longer messages."
        let m4 = lat(Profile::mvia(), 4, WaitMode::Poll);
        let b4 = lat(Profile::bvia(), 4, WaitMode::Poll);
        assert!(m4 < b4, "short: M-VIA {m4} !< BVIA {b4}");
        let m28 = lat(Profile::mvia(), 28672, WaitMode::Poll);
        let b28 = lat(Profile::bvia(), 28672, WaitMode::Poll);
        assert!(b28 < m28, "long: BVIA {b28} !< M-VIA {m28}");
    }

    #[test]
    fn bandwidth_shape_matches_fig3() {
        // §4.3.1: cLAN superior over a large range; BVIA best for large.
        let (c1, m1, b1) = (
            bw(Profile::clan(), 1024),
            bw(Profile::mvia(), 1024),
            bw(Profile::bvia(), 1024),
        );
        assert!(
            c1 > m1 && c1 > b1,
            "mid-size: cLAN {c1} vs M-VIA {m1}, BVIA {b1}"
        );
        let (c28, m28, b28) = (
            bw(Profile::clan(), 28672),
            bw(Profile::mvia(), 28672),
            bw(Profile::bvia(), 28672),
        );
        assert!(b28 > c28, "large: BVIA {b28} !> cLAN {c28}");
        assert!(
            b28 > m28 && c28 > m28,
            "M-VIA must trail for large messages"
        );
    }

    #[test]
    fn blocking_latency_exceeds_polling_everywhere() {
        for p in Profile::paper_trio() {
            let poll = lat(p.clone(), 256, WaitMode::Poll);
            let block = lat(p, 256, WaitMode::Block);
            assert!(
                block > poll + 5.0,
                "blocking {block} must clearly exceed polling {poll}"
            );
        }
    }

    #[test]
    fn blocking_cpu_utilization_below_polling() {
        let mk = |mode| DtConfig {
            iters: 16,
            wait: mode,
            ..DtConfig::base(Profile::bvia(), 4096)
        };
        let poll = ping_pong(&mk(WaitMode::Poll));
        let block = ping_pong(&mk(WaitMode::Block));
        assert!(poll.client_util > 0.99, "polling pegs the CPU");
        assert!(block.client_util < 0.9, "blocking must idle the CPU");
    }

    #[test]
    fn mvia_blocking_cpu_higher_for_small_messages() {
        // §4.3.1: "Since M-VIA emulates VIA in the host operating system,
        // it has a higher CPU utilization for small messages."
        let mk = |p| DtConfig {
            iters: 16,
            wait: WaitMode::Block,
            ..DtConfig::base(p, 16)
        };
        let m = ping_pong(&mk(Profile::mvia()));
        let c = ping_pong(&mk(Profile::clan()));
        assert!(
            m.client_util > c.client_util,
            "M-VIA {} !> cLAN {}",
            m.client_util,
            c.client_util
        );
    }
}
