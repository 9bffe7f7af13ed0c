//! Impact of virtual-to-physical address translation (§3.2.2): the base
//! tests with the buffer-reuse percentage swept. On an implementation
//! whose NIC translates out of host-resident tables through a software
//! cache (Berkeley VIA), lower reuse means more translation-cache misses
//! per message — and more so for large messages, which span several pages.
//! Reproduces Fig. 5.

use simkit::WaitMode;
use via::Profile;

use crate::harness::{paper_sizes, ping_pong, DtConfig};
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

/// §4.3.2's sensitivity numbers at `size` bytes: the added one-way latency
/// (us) and the ratio between 0% and 100% reuse.
pub fn reuse_sensitivity(profile: Profile, size: u64) -> (f64, f64) {
    let lat = |r| {
        let cfg = DtConfig {
            iters: 60,
            warmup: 0,
            reuse_percent: r,
            ..DtConfig::base(profile.clone(), size)
        };
        ping_pong(&cfg).latency_us
    };
    let (l0, l100) = (lat(0), lat(100));
    (l0 - l100, l0 / l100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bvia_latency_degrades_as_reuse_drops() {
        // §4.3.2: "changing the send and receive buffers has a significant
        // effect on the latency of messages for BVIA."
        let fig = reuse_sweep(Profile::bvia(), Metric::Latency, &[100, 50, 0]).figure();
        let full = fig.series("100% reuse").unwrap();
        let half = fig.series("50% reuse").unwrap();
        let none = fig.series("0% reuse").unwrap();
        for &size in &[4096.0, 28672.0] {
            let (f, h, n) = (
                full.at(size).unwrap(),
                half.at(size).unwrap(),
                none.at(size).unwrap(),
            );
            assert!(n > h && h > f, "at {size}: 0%={n} 50%={h} 100%={f}");
        }
    }

    #[test]
    fn bvia_effect_grows_with_message_size() {
        // §4.3.2: "The impact of address translation is more severe for
        // large messages because each message gets mapped to several pages"
        // — i.e. the *added microseconds* grow with the page count.
        let (small_us, small_ratio) = reuse_sensitivity(Profile::bvia(), 64);
        let (large_us, _) = reuse_sensitivity(Profile::bvia(), 28672);
        assert!(
            large_us > small_us * 3.0,
            "added latency must grow with size: small {small_us} us, large {large_us} us"
        );
        assert!(
            small_ratio > 1.10,
            "even 1-page messages must feel it: {small_ratio}"
        );
        assert!(
            large_us > 30.0,
            "7-page messages must lose tens of us: {large_us}"
        );
    }

    #[test]
    fn mvia_and_clan_are_reuse_insensitive() {
        // §4.3.2: "the results for M-VIA and cLAN do not change
        // significantly with the percentage of buffer reuse."
        for p in [Profile::mvia(), Profile::clan()] {
            let (_, ratio) = reuse_sensitivity(p.clone(), 28672);
            assert!(
                (0.98..1.02).contains(&ratio),
                "{} sensitivity {ratio} should be ~1.0",
                p.name
            );
        }
    }

    #[test]
    fn cpu_utilization_drops_with_fresh_buffers_when_blocking() {
        // Misses stretch the NIC phase of each transfer; the blocked host
        // idles through it, so utilization at 0% reuse is lower.
        let fig = reuse_sweep(Profile::bvia(), Metric::Cpu, &[100, 0]).figure();
        let u100 = fig.series("100% reuse").unwrap().at(28672.0).unwrap();
        let u0 = fig.series("0% reuse").unwrap().at(28672.0).unwrap();
        assert!(u0 < u100, "0% reuse util {u0} !< 100% reuse util {u100}");
    }

    #[test]
    fn bvia_bandwidth_also_degrades() {
        // §4.3.2: "the percentage of buffer reuse also has a significant
        // effect on the bandwidth."
        let fig = reuse_sweep(Profile::bvia(), Metric::Bandwidth, &[100, 0]).figure();
        let full = fig.series("100% reuse").unwrap().at(28672.0).unwrap();
        let none = fig.series("0% reuse").unwrap().at(28672.0).unwrap();
        assert!(none < full, "0% reuse bw {none} !< 100% reuse bw {full}");
    }
}
