//! Impact of multiple VIs (§3.2.4): the base tests with a varying number
//! of VIs open on each node. Berkeley VIA's firmware "polls a data
//! structure containing the send descriptors for all VIs", so its latency
//! grows with the VI count (Fig. 6); implementations with hardware
//! doorbell FIFOs or host-side emulation are flat.

use simkit::WaitMode;
use via::Profile;

use crate::harness::{ping_pong, DtConfig};
use crate::sweep::{Curve, Metric, Sweep};

/// The VI counts Fig. 6 sweeps.
pub fn vi_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32]
}

/// One Fig. 6 panel: `metric` vs. message size, one curve per active-VI
/// count. The CPU panel (the TR companion) runs with blocking waits: the
/// firmware scan lengthens each transfer without consuming host CPU, so
/// utilization *drops* as VIs accumulate on a polling-firmware
/// implementation.
pub fn vi_sweep(profile: Profile, metric: Metric, counts: &[usize], sizes: &[u64]) -> Sweep {
    let (source, iters, wait) = match metric {
        Metric::Latency => ("Fig 6", 30, WaitMode::Poll),
        Metric::Bandwidth => ("Fig 6", 192, WaitMode::Poll),
        Metric::Cpu => ("TR", 30, WaitMode::Block),
    };
    let mut sweep = Sweep::new(
        format!(
            "{}: {} vs number of active VIs ({source})",
            profile.name,
            metric.name()
        ),
        "bytes",
        metric.y_label(),
    );
    for &n in counts {
        let profile = profile.clone();
        sweep.push(Curve::dt(format!("{n} VIs"), sizes, metric, move |size| {
            DtConfig {
                iters,
                active_vis: n,
                wait,
                ..DtConfig::base(profile.clone(), size)
            }
        }));
    }
    sweep
}

/// Added one-way latency per extra VI (the Fig 6 slope) at `size` bytes.
pub fn latency_slope_per_vi(profile: Profile, size: u64) -> f64 {
    let lat = |n| {
        ping_pong(&DtConfig {
            iters: 30,
            active_vis: n,
            ..DtConfig::base(profile.clone(), size)
        })
        .latency_us
    };
    (lat(32) - lat(1)) / 31.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bvia_latency_grows_with_vi_count() {
        // §4.3.4: "with increase in the number of VIs, the latency of
        // messages increases significantly."
        let fig = vi_sweep(Profile::bvia(), Metric::Latency, &[1, 8, 32], &[256]).figure();
        let l1 = fig.series("1 VIs").unwrap().at(256.0).unwrap();
        let l8 = fig.series("8 VIs").unwrap().at(256.0).unwrap();
        let l32 = fig.series("32 VIs").unwrap().at(256.0).unwrap();
        assert!(l8 > l1 + 3.0, "8 VIs {l8} vs 1 VI {l1}");
        assert!(l32 > l8 + 10.0, "32 VIs {l32} vs 8 VIs {l8}");
    }

    #[test]
    fn bvia_bandwidth_drops_with_vi_count() {
        // §4.3.4: "The impact of number of active VIs on bandwidth is also
        // significant." Small messages are doorbell-bound, so that is
        // where the scan delay bites.
        let fig = vi_sweep(Profile::bvia(), Metric::Bandwidth, &[1, 32], &[1024]).figure();
        let b1 = fig.series("1 VIs").unwrap().at(1024.0).unwrap();
        let b32 = fig.series("32 VIs").unwrap().at(1024.0).unwrap();
        assert!(b32 < b1 * 0.8, "32 VIs {b32} must be well below 1 VI {b1}");
    }

    #[test]
    fn mvia_and_clan_are_flat_in_vi_count() {
        // §4.3.4: "The results for M-VIA and cLAN do not show any
        // significant change in the presence of multiple active VIs."
        for p in [Profile::mvia(), Profile::clan()] {
            let slope = latency_slope_per_vi(p.clone(), 256);
            assert!(
                slope.abs() < 0.05,
                "{} slope {slope} us/VI should be ~0",
                p.name
            );
        }
    }

    #[test]
    fn cpu_utilization_drops_with_vi_count_when_blocking() {
        // More firmware scanning means the blocked host idles longer per
        // transfer: utilization falls as VIs accumulate.
        let fig = vi_sweep(Profile::bvia(), Metric::Cpu, &[1, 32], &[256]).figure();
        let u1 = fig.series("1 VIs").unwrap().at(256.0).unwrap();
        let u32 = fig.series("32 VIs").unwrap().at(256.0).unwrap();
        assert!(u32 < u1, "util with 32 VIs {u32} !< 1 VI {u1}");
    }

    #[test]
    fn bvia_slope_is_close_to_firmware_scan_cost() {
        // The firmware's per-VI scan cost is 0.95 us (vnic::FirmwareModel);
        // each one-way trip pays one scan on the sender's NIC, and the
        // measured round trip averages two scans over two legs.
        let slope = latency_slope_per_vi(Profile::bvia(), 256);
        assert!(
            (0.5..=1.5).contains(&slope),
            "BVIA per-VI latency slope {slope} us"
        );
    }
}
