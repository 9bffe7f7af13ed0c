//! Impact of virtual-to-physical address translation (§3.2.2): the base
//! tests with the buffer-reuse percentage swept. On an implementation
//! whose NIC translates out of host-resident tables through a software
//! cache (Berkeley VIA), lower reuse means more translation-cache misses
//! per message — and more so for large messages, which span several pages.
//! Reproduces Fig. 5.

use simkit::WaitMode;
use via::Profile;

use crate::harness::{paper_sizes, DtConfig};
use crate::sweep::{Curve, Metric, Sweep};

/// The reuse percentages Fig. 5 sweeps.
pub fn reuse_levels() -> Vec<u32> {
    vec![100, 75, 50, 25, 0]
}

/// One Fig. 5 panel: `metric` vs. message size, one curve per reuse level.
/// The CPU panel (the TR companion) runs with blocking waits — with
/// polling every point is 100% — and there more translation misses mean
/// longer NIC phases, so the host spends a *smaller* fraction of each
/// transfer busy.
pub fn reuse_sweep(profile: Profile, metric: Metric, levels: &[u32]) -> Sweep {
    let (source, iters, wait) = match metric {
        Metric::Latency => ("Fig 5", 60, WaitMode::Poll),
        Metric::Bandwidth => ("Fig 5", 256, WaitMode::Poll),
        Metric::Cpu => ("TR", 30, WaitMode::Block),
    };
    let mut sweep = Sweep::new(
        format!(
            "{}: {} vs buffer reuse ({source})",
            profile.name,
            metric.name()
        ),
        "bytes",
        metric.y_label(),
    );
    for &r in levels {
        let profile = profile.clone();
        sweep.push(Curve::dt(
            format!("{r}% reuse"),
            &paper_sizes(),
            metric,
            move |size| DtConfig {
                iters,
                warmup: 0, // warmup would prime the translation cache
                reuse_percent: r,
                wait,
                ..DtConfig::base(profile.clone(), size)
            },
        ));
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mvia_and_clan_are_reuse_insensitive() {
        // §4.3.2: "the results for M-VIA and cLAN do not change
        // significantly with the percentage of buffer reuse." F5 sweeps
        // BVIA only, so no golden carries these two profiles.
        for p in [Profile::mvia(), Profile::clan()] {
            let fig = reuse_sweep(p.clone(), Metric::Latency, &[100, 0]).figure();
            let fresh = fig.series("0% reuse").unwrap();
            for &(x, reused) in &fig.series("100% reuse").unwrap().points {
                let ratio = fresh.at(x).unwrap() / reused;
                assert!(
                    (0.98..1.02).contains(&ratio),
                    "{} at {x} B: sensitivity {ratio} should be ~1.0",
                    p.name
                );
            }
        }
    }
}
