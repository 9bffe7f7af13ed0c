//! Impact of multiple VIs (§3.2.4): the base tests with a varying number
//! of VIs open on each node. Berkeley VIA's firmware "polls a data
//! structure containing the send descriptors for all VIs", so its latency
//! grows with the VI count (Fig. 6); implementations with hardware
//! doorbell FIFOs or host-side emulation are flat.

use simkit::WaitMode;
use via::Profile;

use crate::harness::DtConfig;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mvia_and_clan_are_flat_in_vi_count() {
        // §4.3.4: "The results for M-VIA and cLAN do not show any
        // significant change in the presence of multiple active VIs." F6
        // sweeps BVIA only, so no golden carries these two profiles.
        for p in [Profile::mvia(), Profile::clan()] {
            let fig = vi_sweep(p.clone(), Metric::Latency, &[1, 32], &[256]).figure();
            let at = |n: &str| fig.series(n).unwrap().at(256.0).unwrap();
            let slope = (at("32 VIs") - at("1 VIs")) / 31.0;
            assert!(
                slope.abs() < 0.05,
                "{} slope {slope} us/VI should be ~0",
                p.name
            );
        }
    }
}
